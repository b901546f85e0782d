#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace cloudcache {

/// Logical type of a column. The cost model only needs byte widths, but the
/// type tag keeps the catalog self-describing and lets the index advisor
/// distinguish sortable key columns from payload.
enum class DataType {
  kInt32,
  kInt64,
  kFloat64,
  kDecimal,   // Fixed-point, stored as 8 bytes.
  kDate,      // Days since epoch, 4 bytes.
  kChar,      // Fixed width, given per column.
  kVarchar,   // Average width, given per column.
};

/// Default storage width in bytes for fixed-width types; 0 for kChar and
/// kVarchar, whose width is per-column.
uint32_t DefaultWidth(DataType type);

/// Catalog-wide dense column identifier; assigned by Catalog::AddTable in
/// registration order. Used as the key of every per-column array in the
/// cache and the regret ledger.
using ColumnId = uint32_t;

/// Catalog-wide dense table identifier.
using TableId = uint32_t;

/// A column of a backend table.
struct Column {
  std::string name;
  DataType type = DataType::kInt64;
  /// Storage width of one value in bytes (average width for kVarchar).
  uint32_t width_bytes = 8;
  /// Fraction of rows carrying a distinct value, in (0, 1]; drives
  /// selectivity estimates for equality predicates and index benefit.
  double distinct_fraction = 1.0;

  TableId table_id = 0;   // Filled by Catalog::AddTable.
  ColumnId column_id = 0; // Filled by Catalog::AddTable.
};

/// A backend table: a name, a row count, and its columns.
struct Table {
  std::string name;
  uint64_t row_count = 0;
  std::vector<Column> columns;
  TableId table_id = 0;  // Filled by Catalog::AddTable.

  /// Sum of column widths: bytes of one row.
  uint64_t RowWidth() const;
  /// row_count * RowWidth().
  uint64_t TotalBytes() const;
};

/// The schema of the back-end database the cloud cache sits in front of.
///
/// Immutable once built (the paper assumes static cloud databases,
/// Section V-C), so all lookups are by dense id or by name with no
/// synchronization.
class Catalog {
 public:
  Catalog() = default;

  /// Registers a table; assigns dense ids to it and its columns.
  /// Fails if a table of the same name exists or the table has no columns.
  Status AddTable(Table table);

  size_t num_tables() const { return tables_.size(); }
  size_t num_columns() const { return columns_.size(); }

  const Table& table(TableId id) const { return tables_[id]; }
  const Column& column(ColumnId id) const { return *columns_[id]; }

  /// Table by name, or NotFound.
  Result<TableId> FindTable(const std::string& name) const;
  /// Column by "table.column" qualified name, or NotFound.
  Result<ColumnId> FindColumn(const std::string& qualified_name) const;

  /// Bytes occupied by one column across all its rows.
  uint64_t ColumnBytes(ColumnId id) const;

  /// Total bytes of the whole database (the paper's "2.5 TB backend").
  uint64_t TotalBytes() const;

  const std::vector<Table>& tables() const { return tables_; }

 private:
  std::vector<Table> tables_;
  /// Dense ColumnId -> pointer into tables_[...].columns. Stable because
  /// tables_ is only appended to and never reallocated after Freeze; we
  /// re-index on every AddTable instead of holding raw pointers eagerly.
  std::vector<const Column*> columns_;

  void Reindex();
};

}  // namespace cloudcache
