#include "src/cache/cache_state.h"

#include "src/util/logging.h"

namespace cloudcache {

CacheState::CacheState(StructureRegistry* registry) : registry_(registry) {
  column_resident_.assign(registry->catalog().num_columns(), false);
}

Status CacheState::Add(StructureId id, SimTime now) {
  CLOUDCACHE_CHECK_LT(id, registry_->size());
  if (id >= resident_.size()) {
    resident_.resize(id + 1, false);
    last_used_.resize(id + 1, 0);
  }
  if (resident_[id]) {
    return Status::AlreadyExists(
        registry_->key(id).ToString(registry_->catalog()));
  }
  resident_[id] = true;
  last_used_[id] = now;
  ++epoch_;
  const StructureKey& key = registry_->key(id);
  resident_bytes_ += registry_->bytes(id);
  if (key.type == StructureType::kColumn) {
    column_resident_[key.columns.front()] = true;
  } else if (key.type == StructureType::kCpuNode) {
    ++extra_cpu_nodes_;
  }
  return Status::OK();
}

Status CacheState::Remove(StructureId id) {
  if (!IsResident(id)) {
    return Status::NotFound("structure id " + std::to_string(id) +
                            " is not resident");
  }
  resident_[id] = false;
  ++epoch_;
  const StructureKey& key = registry_->key(id);
  resident_bytes_ -= registry_->bytes(id);
  if (key.type == StructureType::kColumn) {
    column_resident_[key.columns.front()] = false;
  } else if (key.type == StructureType::kCpuNode) {
    CLOUDCACHE_CHECK_GT(extra_cpu_nodes_, 0u);
    --extra_cpu_nodes_;
  }
  return Status::OK();
}

void CacheState::Touch(StructureId id, SimTime now) {
  CLOUDCACHE_CHECK(IsResident(id));
  last_used_[id] = now;
}

SimTime CacheState::LastUsed(StructureId id) const {
  return id < last_used_.size() ? last_used_[id] : 0;
}

bool CacheState::ColumnResident(ColumnId column) const {
  CLOUDCACHE_CHECK_LT(column, column_resident_.size());
  return column_resident_[column];
}

std::vector<StructureId> CacheState::Residents() const {
  std::vector<StructureId> out;
  for (StructureId id = 0; id < resident_.size(); ++id) {
    if (resident_[id]) out.push_back(id);
  }
  return out;
}

void CacheState::SaveState(persist::Encoder* enc) const {
  enc->Length(resident_.size());
  for (size_t id = 0; id < resident_.size(); ++id) {
    enc->Bool(resident_[id]);
    enc->F64(last_used_[id]);
  }
  enc->Length(column_resident_.size());
  for (bool resident : column_resident_) enc->Bool(resident);
  enc->U64(resident_bytes_);
  enc->U32(extra_cpu_nodes_);
  enc->U64(epoch_);
}

Status CacheState::RestoreState(persist::Decoder* dec) {
  uint64_t size = 0;
  dec->Length(size);
  CLOUDCACHE_RETURN_IF_ERROR(dec->status());
  if (size > registry_->size()) {
    return Status::InvalidArgument(
        "snapshot cache state is larger than the structure registry");
  }
  resident_.assign(size, false);
  last_used_.assign(size, 0);
  for (size_t id = 0; id < size; ++id) {
    bool resident = false;
    dec->Bool(resident);
    dec->F64(last_used_[id]);
    resident_[id] = resident;
  }
  uint64_t columns = 0;
  dec->Length(columns);
  CLOUDCACHE_RETURN_IF_ERROR(dec->status());
  if (columns != column_resident_.size()) {
    return Status::InvalidArgument(
        "snapshot column residency does not match the catalog width");
  }
  for (size_t col = 0; col < columns; ++col) {
    bool resident = false;
    dec->Bool(resident);
    column_resident_[col] = resident;
  }
  dec->U64(resident_bytes_);
  dec->U32(extra_cpu_nodes_);
  dec->U64(epoch_);
  return dec->status();
}

std::vector<StructureId> CacheState::ResidentsOfType(
    StructureType type) const {
  std::vector<StructureId> out;
  for (StructureId id = 0; id < resident_.size(); ++id) {
    if (resident_[id] && registry_->key(id).type == type) out.push_back(id);
  }
  return out;
}

}  // namespace cloudcache
