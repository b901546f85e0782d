#include "src/structure/structure.h"

#include "src/util/logging.h"

namespace cloudcache {

const char* StructureTypeToString(StructureType type) {
  switch (type) {
    case StructureType::kCpuNode:
      return "cpu";
    case StructureType::kColumn:
      return "column";
    case StructureType::kIndex:
      return "index";
  }
  return "?";
}

std::string StructureKey::ToString(const Catalog& catalog) const {
  std::string out = StructureTypeToString(type);
  out += '(';
  switch (type) {
    case StructureType::kCpuNode:
      out += std::to_string(ordinal);
      break;
    case StructureType::kColumn:
      out += catalog.table(table).name + "." +
             catalog.column(columns.front()).name;
      break;
    case StructureType::kIndex: {
      out += catalog.table(table).name + ": ";
      for (size_t i = 0; i < columns.size(); ++i) {
        if (i) out += ',';
        out += catalog.column(columns[i]).name;
      }
      break;
    }
  }
  out += ')';
  return out;
}

StructureKey CpuNodeKey(uint32_t ordinal) {
  StructureKey key;
  key.type = StructureType::kCpuNode;
  key.ordinal = ordinal;
  return key;
}

StructureKey ColumnKey(const Catalog& catalog, ColumnId column) {
  StructureKey key;
  key.type = StructureType::kColumn;
  key.table = catalog.column(column).table_id;
  key.columns = {column};
  return key;
}

StructureKey IndexKey(const Catalog& catalog,
                      std::vector<ColumnId> columns) {
  CLOUDCACHE_CHECK(!columns.empty());
  StructureKey key;
  key.type = StructureType::kIndex;
  key.table = catalog.column(columns.front()).table_id;
  key.columns = std::move(columns);
  for (ColumnId col : key.columns) {
    CLOUDCACHE_CHECK_EQ(catalog.column(col).table_id, key.table);
  }
  return key;
}

size_t StructureKeyHash::operator()(const StructureKey& key) const {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  auto mix = [&h](uint64_t value) {
    h ^= value + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  mix(static_cast<uint64_t>(key.type));
  mix(key.table);
  mix(key.ordinal);
  for (ColumnId col : key.columns) mix(col);
  return static_cast<size_t>(h);
}

uint64_t StructureBytes(const Catalog& catalog, const StructureKey& key) {
  switch (key.type) {
    case StructureType::kCpuNode:
      return 0;
    case StructureType::kColumn:
      return catalog.ColumnBytes(key.columns.front());
    case StructureType::kIndex: {
      // Key columns plus an 8-byte row locator per entry.
      uint64_t bytes = catalog.table(key.table).row_count * 8;
      for (ColumnId col : key.columns) bytes += catalog.ColumnBytes(col);
      return bytes;
    }
  }
  return 0;
}

StructureId StructureRegistry::Intern(const StructureKey& key) {
  auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  const auto id = static_cast<StructureId>(keys_.size());
  keys_.push_back(key);
  bytes_.push_back(StructureBytes(*catalog_, key));
  index_.emplace(keys_.back(), id);
  return id;
}

Result<StructureId> StructureRegistry::Find(const StructureKey& key) const {
  auto it = index_.find(key);
  if (it == index_.end()) {
    return Status::NotFound("structure " + key.ToString(*catalog_));
  }
  return it->second;
}

std::vector<StructureId> StructureRegistry::IdsOfType(
    StructureType type) const {
  std::vector<StructureId> ids;
  for (StructureId id = 0; id < keys_.size(); ++id) {
    if (keys_[id].type == type) ids.push_back(id);
  }
  return ids;
}

void StructureRegistry::SaveState(persist::Encoder* enc) const {
  enc->Seq(keys_, [enc](const StructureKey& key) {
    enc->U8(static_cast<uint8_t>(key.type));
    enc->U32(key.table);
    enc->Seq(key.columns, [enc](ColumnId col) { enc->U32(col); });
    enc->U32(key.ordinal);
  });
}

Status StructureRegistry::RestoreState(persist::Decoder* dec) {
  uint64_t count = 0;
  dec->Length(count);
  CLOUDCACHE_RETURN_IF_ERROR(dec->status());
  if (count < keys_.size()) {
    return Status::FailedPrecondition(
        "snapshot registry has fewer structures than this run interned at "
        "construction");
  }
  for (uint64_t i = 0; i < count; ++i) {
    StructureKey key;
    uint8_t type = 0;
    dec->U8(type);
    dec->U32(key.table);
    dec->Seq(key.columns, [dec](ColumnId& col) { dec->U32(col); });
    dec->U32(key.ordinal);
    CLOUDCACHE_RETURN_IF_ERROR(dec->status());
    if (type > static_cast<uint8_t>(StructureType::kIndex)) {
      return Status::InvalidArgument("corrupt structure type in snapshot");
    }
    key.type = static_cast<StructureType>(type);
    if (key.type != StructureType::kCpuNode) {
      if (key.table >= catalog_->num_tables()) {
        return Status::InvalidArgument("snapshot structure references an "
                                       "unknown table");
      }
      for (ColumnId col : key.columns) {
        if (col >= catalog_->num_columns()) {
          return Status::InvalidArgument("snapshot structure references an "
                                         "unknown column");
        }
      }
    }
    if (i < keys_.size()) {
      // Construction-time interning (index candidates, initial CPU nodes)
      // must agree with the snapshot id for id, or every dense-id-indexed
      // array restored after this would be misaligned.
      if (keys_[i] != key) {
        return Status::FailedPrecondition(
            "snapshot structure id " + std::to_string(i) +
            " disagrees with this run's construction-time interning");
      }
    } else {
      const StructureId id = Intern(key);
      if (id != i) {
        return Status::InvalidArgument(
            "snapshot registry contains duplicate structure keys");
      }
    }
  }
  return Status::OK();
}

}  // namespace cloudcache
