#include "src/catalog/schema.h"

#include "src/util/logging.h"

namespace cloudcache {

uint32_t DefaultWidth(DataType type) {
  switch (type) {
    case DataType::kInt32:
    case DataType::kDate:
      return 4;
    case DataType::kInt64:
    case DataType::kFloat64:
    case DataType::kDecimal:
      return 8;
    case DataType::kChar:
    case DataType::kVarchar:
      return 0;
  }
  return 0;
}

uint64_t Table::RowWidth() const {
  uint64_t width = 0;
  for (const Column& col : columns) width += col.width_bytes;
  return width;
}

uint64_t Table::TotalBytes() const { return row_count * RowWidth(); }

Status Catalog::AddTable(Table table) {
  if (table.columns.empty()) {
    return Status::InvalidArgument("table '" + table.name +
                                   "' has no columns");
  }
  for (const Table& existing : tables_) {
    if (existing.name == table.name) {
      return Status::AlreadyExists("table '" + table.name + "'");
    }
  }
  for (const Column& col : table.columns) {
    if (col.width_bytes == 0) {
      return Status::InvalidArgument("column '" + table.name + "." +
                                     col.name + "' has zero width");
    }
    if (col.distinct_fraction <= 0.0 || col.distinct_fraction > 1.0) {
      return Status::InvalidArgument("column '" + table.name + "." +
                                     col.name +
                                     "' distinct_fraction outside (0, 1]");
    }
  }
  table.table_id = static_cast<TableId>(tables_.size());
  tables_.push_back(std::move(table));
  Reindex();
  return Status::OK();
}

void Catalog::Reindex() {
  columns_.clear();
  ColumnId next = 0;
  for (Table& table : tables_) {
    for (Column& col : table.columns) {
      col.table_id = table.table_id;
      col.column_id = next++;
    }
  }
  columns_.reserve(next);
  for (const Table& table : tables_) {
    for (const Column& col : table.columns) columns_.push_back(&col);
  }
}

Result<TableId> Catalog::FindTable(const std::string& name) const {
  for (const Table& table : tables_) {
    if (table.name == name) return table.table_id;
  }
  return Status::NotFound("table '" + name + "'");
}

Result<ColumnId> Catalog::FindColumn(const std::string& qualified) const {
  const size_t dot = qualified.find('.');
  if (dot == std::string::npos) {
    return Status::InvalidArgument("expected 'table.column', got '" +
                                   qualified + "'");
  }
  const std::string table_name = qualified.substr(0, dot);
  const std::string column_name = qualified.substr(dot + 1);
  Result<TableId> table_id = FindTable(table_name);
  if (!table_id.ok()) return table_id.status();
  for (const Column& col : tables_[*table_id].columns) {
    if (col.name == column_name) return col.column_id;
  }
  return Status::NotFound("column '" + qualified + "'");
}

uint64_t Catalog::ColumnBytes(ColumnId id) const {
  CLOUDCACHE_CHECK_LT(id, columns_.size());
  const Column& col = *columns_[id];
  return tables_[col.table_id].row_count * col.width_bytes;
}

uint64_t Catalog::TotalBytes() const {
  uint64_t total = 0;
  for (const Table& table : tables_) total += table.TotalBytes();
  return total;
}

}  // namespace cloudcache
