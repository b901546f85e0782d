#include "src/query/templates.h"

#include <algorithm>

namespace cloudcache {

std::vector<QueryTemplate> MakeTpchTemplates() {
  std::vector<QueryTemplate> templates;

  // T0 "pricing_summary" (after TPC-H Q1): aggregation over a recent
  // shipping window; CPU-bound, tiny (grouped) result.
  templates.push_back({
      .name = "pricing_summary",
      .table = "lineitem",
      .output_columns = {"l_quantity", "l_extendedprice", "l_discount",
                         "l_tax", "l_returnflag", "l_linestatus"},
      .predicates = {{"l_shipdate", 0.004, 0.012, false, true}},
      .row_limit_fraction = 1e-7,
      .cpu_multiplier = 2.2,
      .parallel_fraction = 0.97,
  });

  // T1 "shipping_scan" (after Q6): range selection on lineitem returning a
  // TOP-N sample of matching rows; the canonical result-heavy scan.
  templates.push_back({
      .name = "shipping_scan",
      .table = "lineitem",
      .output_columns = {"l_extendedprice", "l_discount", "l_quantity"},
      .predicates = {{"l_shipdate", 0.002, 0.020, false, true},
                     {"l_discount", 0.15, 0.45, false, false},
                     {"l_quantity", 0.30, 0.60, false, false}},
      .row_limit_fraction = 0.05,
      .cpu_multiplier = 1.0,
      .parallel_fraction = 0.95,
  });

  // T2 "order_browse" (after Q3): orders driving table, date window plus
  // customer-region locality.
  templates.push_back({
      .name = "order_browse",
      .table = "orders",
      .output_columns = {"o_orderkey", "o_totalprice", "o_orderdate",
                         "o_shippriority"},
      .predicates = {{"o_orderdate", 0.002, 0.020, false, true},
                     {"o_custkey", 0.002, 0.020, false, false}},
      .row_limit_fraction = 1.0,
      .cpu_multiplier = 1.6,
      .parallel_fraction = 0.9,
  });

  // T3 "returned_items" (after Q10): receipt window (clustered) plus
  // returned-flag equality.
  templates.push_back({
      .name = "returned_items",
      .table = "lineitem",
      .output_columns = {"l_orderkey", "l_extendedprice", "l_discount"},
      .predicates = {{"l_receiptdate", 0.002, 0.020, false, true},
                     {"l_returnflag", 0.24, 0.26, true, false}},
      .row_limit_fraction = 0.02,
      .cpu_multiplier = 1.8,
      .parallel_fraction = 0.9,
  });

  // T4 "part_promo" (after Q14): promotion-window scan keyed by part
  // locality.
  templates.push_back({
      .name = "part_promo",
      .table = "lineitem",
      .output_columns = {"l_extendedprice", "l_discount", "l_partkey"},
      .predicates = {{"l_shipdate", 0.005, 0.020, false, true},
                     {"l_partkey", 0.05, 0.20, false, false}},
      .row_limit_fraction = 0.05,
      .cpu_multiplier = 1.3,
      .parallel_fraction = 0.93,
  });

  // T5 "customer_segment": market-segment slice of customers within a
  // balance band (balance band is the locality dimension here).
  templates.push_back({
      .name = "customer_segment",
      .table = "customer",
      .output_columns = {"c_custkey", "c_name", "c_acctbal", "c_nationkey"},
      .predicates = {{"c_acctbal", 0.05, 0.30, false, true},
                     {"c_mktsegment", 0.18, 0.22, true, false}},
      .row_limit_fraction = 0.02,
      .cpu_multiplier = 1.0,
      .parallel_fraction = 0.85,
  });

  // T6 "discounted_parts" (after Q19): part-key region with size/container
  // predicate stack; small result.
  templates.push_back({
      .name = "discounted_parts",
      .table = "part",
      .output_columns = {"p_partkey", "p_retailprice", "p_brand"},
      .predicates = {{"p_partkey", 0.01, 0.05, false, true},
                     {"p_size", 0.08, 0.20, false, false},
                     {"p_container", 0.02, 0.03, true, false}},
      .row_limit_fraction = 1.0,
      .cpu_multiplier = 1.1,
      .parallel_fraction = 0.85,
  });

  return templates;
}

std::vector<QueryTemplate> MakeSdssTemplates() {
  std::vector<QueryTemplate> templates;

  // Cone search: sky-region window on (ra, dec), returning photometry.
  templates.push_back({
      .name = "cone_search",
      .table = "photoobj",
      .output_columns = {"objid", "ra", "dec", "psfmag_r", "psfmag_g"},
      .predicates = {{"ra", 0.001, 0.010, false, true},
                     {"dec", 0.01, 0.10, false, false}},
      .row_limit_fraction = 1.0,
      .cpu_multiplier = 1.0,
      .parallel_fraction = 0.95,
  });

  // Color cut: magnitude-difference selection across bands.
  templates.push_back({
      .name = "color_cut",
      .table = "photoobj",
      .output_columns = {"objid", "psfmag_u", "psfmag_g", "psfmag_r",
                         "psfmag_i", "psfmag_z"},
      .predicates = {{"htmid", 0.002, 0.020, false, true},
                     {"psfmag_r", 0.05, 0.25, false, false},
                     {"obj_type", 0.08, 0.12, true, false}},
      .row_limit_fraction = 0.05,
      .cpu_multiplier = 1.4,
      .parallel_fraction = 0.96,
  });

  // Spectro match: spectroscopic redshift slice.
  templates.push_back({
      .name = "spectro_match",
      .table = "specobj",
      .output_columns = {"specobjid", "bestobjid", "z", "spec_class"},
      .predicates = {{"z", 0.01, 0.15, false, true},
                     {"zwarning", 0.80, 0.95, true, false}},
      .row_limit_fraction = 0.5,
      .cpu_multiplier = 1.2,
      .parallel_fraction = 0.9,
  });

  // Quality scan: survey-quality aggregation over fields; tiny result.
  templates.push_back({
      .name = "quality_scan",
      .table = "field",
      .output_columns = {"fieldid", "seeing_r", "sky_r", "quality"},
      .predicates = {{"mjd_r", 0.05, 0.50, false, true}},
      .row_limit_fraction = 1e-4,
      .cpu_multiplier = 1.8,
      .parallel_fraction = 0.9,
  });

  // Flux histogram: wide scan binning petrosian radii; CPU heavy.
  templates.push_back({
      .name = "flux_histogram",
      .table = "photoobj",
      .output_columns = {"petrorad_r", "petror50_r", "petror90_r",
                         "extinction_r"},
      .predicates = {{"htmid", 0.010, 0.050, false, true},
                     {"score", 0.30, 0.70, false, false},
                     {"mode", 0.60, 0.70, true, false}},
      .row_limit_fraction = 1e-5,
      .cpu_multiplier = 2.5,
      .parallel_fraction = 0.98,
  });

  return templates;
}

Result<std::vector<ResolvedTemplate>> ResolveTemplates(
    const Catalog& catalog, const std::vector<QueryTemplate>& templates) {
  std::vector<ResolvedTemplate> resolved;
  resolved.reserve(templates.size());
  for (const QueryTemplate& tmpl : templates) {
    Result<TableId> table = catalog.FindTable(tmpl.table);
    if (!table.ok()) return table.status();
    ResolvedTemplate out;
    out.name = tmpl.name;
    out.table = *table;
    out.row_limit_fraction = tmpl.row_limit_fraction;
    out.cpu_multiplier = tmpl.cpu_multiplier;
    out.parallel_fraction = tmpl.parallel_fraction;
    for (const std::string& column : tmpl.output_columns) {
      Result<ColumnId> id = catalog.FindColumn(tmpl.table + "." + column);
      if (!id.ok()) return id.status();
      out.output_columns.push_back(*id);
    }
    for (const PredicateSpec& spec : tmpl.predicates) {
      if (spec.min_selectivity <= 0.0 || spec.max_selectivity > 1.0 ||
          spec.min_selectivity > spec.max_selectivity) {
        return Status::InvalidArgument(
            "template '" + tmpl.name + "' predicate on '" + spec.column +
            "' has malformed selectivity range");
      }
      Result<ColumnId> id =
          catalog.FindColumn(tmpl.table + "." + spec.column);
      if (!id.ok()) return id.status();
      out.predicates.push_back({*id, spec.min_selectivity,
                                spec.max_selectivity, spec.equality,
                                spec.clustered});
    }
    resolved.push_back(std::move(out));
  }
  return resolved;
}

Query InstantiateQuery(const ResolvedTemplate& tmpl, const Catalog& catalog,
                       Rng& rng, int template_id, uint64_t query_id,
                       double selectivity_scale) {
  Query query;
  query.id = query_id;
  query.template_id = template_id;
  query.table = tmpl.table;
  query.output_columns = tmpl.output_columns;
  query.cpu_multiplier = tmpl.cpu_multiplier;
  query.parallel_fraction = tmpl.parallel_fraction;
  query.predicates.reserve(tmpl.predicates.size());
  for (const auto& spec : tmpl.predicates) {
    Predicate pred;
    pred.column = spec.column;
    const double raw =
        rng.NextUniform(spec.min_selectivity, spec.max_selectivity);
    pred.selectivity = std::clamp(raw * selectivity_scale, 1e-9, 1.0);
    pred.equality = spec.equality;
    pred.clustered = spec.clustered;
    query.predicates.push_back(pred);
  }
  DeriveResultShape(catalog, tmpl.row_limit_fraction, &query);
  // Prime the accessed-columns memo here, once per query, so every
  // downstream consumer (enumerator, cost model, metered re-pricing) reads
  // the same precomputed vector.
  query.AccessedColumns();
  return query;
}

}  // namespace cloudcache
