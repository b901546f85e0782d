#include "src/query/query.h"

#include <algorithm>
#include <cmath>

namespace cloudcache {

double Query::CombinedSelectivity() const {
  double sel = 1.0;
  for (const Predicate& p : predicates) sel *= p.selectivity;
  return sel;
}

uint64_t Query::ColumnFingerprint() const {
  uint64_t hash = 1469598103934665603ull;  // FNV-1a offset basis.
  const auto mix = [&hash](uint64_t value) {
    hash ^= value;
    hash *= 1099511628211ull;  // FNV prime.
  };
  for (ColumnId col : output_columns) mix(col);
  mix(~0ull);  // Separator: outputs vs predicates.
  for (const Predicate& p : predicates) mix(p.column);
  return hash == 0 ? 1 : hash;  // 0 is the "never computed" sentinel.
}

const std::vector<ColumnId>& Query::AccessedColumns() const {
  const uint64_t fingerprint = ColumnFingerprint();
  if (memo_fingerprint_ != fingerprint) {
    accessed_memo_.assign(output_columns.begin(), output_columns.end());
    for (const Predicate& p : predicates) {
      accessed_memo_.push_back(p.column);
    }
    std::sort(accessed_memo_.begin(), accessed_memo_.end());
    accessed_memo_.erase(
        std::unique(accessed_memo_.begin(), accessed_memo_.end()),
        accessed_memo_.end());
    memo_fingerprint_ = fingerprint;
  }
  return accessed_memo_;
}

Status Query::Validate(const Catalog& catalog) const {
  if (table >= catalog.num_tables()) {
    return Status::OutOfRange("table id " + std::to_string(table));
  }
  if (output_columns.empty()) {
    return Status::InvalidArgument("query has no output columns");
  }
  auto check_column = [&](ColumnId col) -> Status {
    if (col >= catalog.num_columns()) {
      return Status::OutOfRange("column id " + std::to_string(col));
    }
    if (catalog.column(col).table_id != table) {
      return Status::InvalidArgument(
          "column " + catalog.column(col).name +
          " does not belong to driving table " + catalog.table(table).name);
    }
    return Status::OK();
  };
  for (ColumnId col : output_columns) CLOUDCACHE_RETURN_IF_ERROR(check_column(col));
  for (const Predicate& p : predicates) {
    CLOUDCACHE_RETURN_IF_ERROR(check_column(p.column));
    if (p.selectivity <= 0.0 || p.selectivity > 1.0) {
      return Status::InvalidArgument("predicate selectivity outside (0, 1]");
    }
  }
  if (cpu_multiplier < 1.0) {
    return Status::InvalidArgument("cpu_multiplier below 1");
  }
  if (parallel_fraction < 0.0 || parallel_fraction > 1.0) {
    return Status::InvalidArgument("parallel_fraction outside [0, 1]");
  }
  if (result_rows > catalog.table(table).row_count) {
    return Status::InvalidArgument("result_rows exceeds table rows");
  }
  return Status::OK();
}

void DeriveResultShape(const Catalog& catalog, double row_limit_fraction,
                       Query* query) {
  const Table& table = catalog.table(query->table);
  const double sel = query->CombinedSelectivity();
  const double rows = static_cast<double>(table.row_count) * sel *
                      std::clamp(row_limit_fraction, 0.0, 1.0);
  query->result_rows =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::llround(rows)));
  query->result_rows = std::min(query->result_rows, table.row_count);
  uint64_t row_width = 0;
  for (ColumnId col : query->output_columns) {
    row_width += catalog.column(col).width_bytes;
  }
  query->result_bytes = query->result_rows * row_width;
}

}  // namespace cloudcache
