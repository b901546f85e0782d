#include "src/persist/metrics_io.h"

#include <utility>
#include <vector>

namespace cloudcache {
namespace persist {

namespace {

void SaveResourceBreakdown(const ResourceBreakdown& breakdown, Encoder* enc) {
  enc->PutDouble(breakdown.cpu_dollars);
  enc->PutDouble(breakdown.network_dollars);
  enc->PutDouble(breakdown.disk_dollars);
  enc->PutDouble(breakdown.io_dollars);
}

Status RestoreResourceBreakdown(Decoder* dec, ResourceBreakdown* breakdown) {
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadDouble(&breakdown->cpu_dollars));
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadDouble(&breakdown->network_dollars));
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadDouble(&breakdown->disk_dollars));
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadDouble(&breakdown->io_dollars));
  return Status::OK();
}

void SaveClusterMetrics(const ClusterMetrics& cluster, Encoder* enc) {
  enc->PutBool(cluster.active);
  enc->PutU32(cluster.final_nodes);
  enc->PutU32(cluster.peak_nodes);
  enc->PutU64(cluster.scale_out_events);
  enc->PutU64(cluster.scale_in_events);
  enc->PutU64(cluster.migrations);
  enc->PutU64(cluster.migration_failures);
  enc->PutDouble(cluster.node_rent_dollars);
  enc->PutU64(cluster.nodes.size());
  for (const NodeMetrics& node : cluster.nodes) {
    enc->PutU32(node.ordinal);
    enc->PutU64(node.queries);
    enc->PutU64(node.served);
    enc->PutU64(node.served_in_cache);
    enc->PutMoney(node.revenue);
    enc->PutMoney(node.profit);
    enc->PutMoney(node.final_credit);
    enc->PutU64(node.final_resident_bytes);
    enc->PutDouble(node.rented_at_seconds);
  }
}

Status RestoreClusterMetrics(Decoder* dec, ClusterMetrics* cluster) {
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadBool(&cluster->active));
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadU32(&cluster->final_nodes));
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadU32(&cluster->peak_nodes));
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadU64(&cluster->scale_out_events));
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadU64(&cluster->scale_in_events));
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadU64(&cluster->migrations));
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadU64(&cluster->migration_failures));
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadDouble(&cluster->node_rent_dollars));
  uint64_t node_count = 0;
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadLength(&node_count));
  cluster->nodes.clear();
  cluster->nodes.resize(node_count);
  for (NodeMetrics& node : cluster->nodes) {
    CLOUDCACHE_RETURN_IF_ERROR(dec->ReadU32(&node.ordinal));
    CLOUDCACHE_RETURN_IF_ERROR(dec->ReadU64(&node.queries));
    CLOUDCACHE_RETURN_IF_ERROR(dec->ReadU64(&node.served));
    CLOUDCACHE_RETURN_IF_ERROR(dec->ReadU64(&node.served_in_cache));
    CLOUDCACHE_RETURN_IF_ERROR(dec->ReadMoney(&node.revenue));
    CLOUDCACHE_RETURN_IF_ERROR(dec->ReadMoney(&node.profit));
    CLOUDCACHE_RETURN_IF_ERROR(dec->ReadMoney(&node.final_credit));
    CLOUDCACHE_RETURN_IF_ERROR(dec->ReadU64(&node.final_resident_bytes));
    CLOUDCACHE_RETURN_IF_ERROR(dec->ReadDouble(&node.rented_at_seconds));
  }
  return Status::OK();
}

/// One per-query counter block, run-wide or one tenant's.
void SaveQueryCounters(const QueryCounters& c, Encoder* enc) {
  enc->PutU64(c.queries);
  enc->PutU64(c.served);
  enc->PutU64(c.served_in_cache);
  enc->PutU64(c.served_in_backend);
  enc->PutU64(c.wan_bytes);
  c.response_hist.SaveState(enc);
  SaveResourceBreakdown(c.operating_cost, enc);
  enc->PutMoney(c.revenue);
  enc->PutMoney(c.profit);
  enc->PutU64(c.case_a);
  enc->PutU64(c.case_b);
  enc->PutU64(c.case_c);
  enc->PutU64(c.investments);
  enc->PutU64(c.evictions);
  enc->PutU64(c.throttled);
}

Status RestoreQueryCounters(Decoder* dec, QueryCounters* c) {
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadU64(&c->queries));
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadU64(&c->served));
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadU64(&c->served_in_cache));
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadU64(&c->served_in_backend));
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadU64(&c->wan_bytes));
  CLOUDCACHE_RETURN_IF_ERROR(c->response_hist.RestoreState(dec));
  CLOUDCACHE_RETURN_IF_ERROR(
      RestoreResourceBreakdown(dec, &c->operating_cost));
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadMoney(&c->revenue));
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadMoney(&c->profit));
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadU64(&c->case_a));
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadU64(&c->case_b));
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadU64(&c->case_c));
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadU64(&c->investments));
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadU64(&c->evictions));
  return dec->ReadU64(&c->throttled);
}

}  // namespace

void SaveSimMetrics(const SimMetrics& metrics, Encoder* enc) {
  enc->PutString(metrics.scheme_name);
  SaveQueryCounters(metrics, enc);
  enc->PutMoney(metrics.final_credit);
  enc->PutU64(metrics.final_resident_bytes);
  enc->PutU32(metrics.final_extra_nodes);
  SaveTimeSeries(metrics.cost_over_time, enc);
  SaveTimeSeries(metrics.credit_over_time, enc);
  enc->PutU64(metrics.tenants.size());
  for (const TenantMetrics& tenant : metrics.tenants) {
    enc->PutU32(tenant.tenant_id);
    SaveQueryCounters(tenant, enc);
    enc->PutMoney(tenant.final_regret);
  }
  enc->PutDouble(metrics.fairness.response_jain);
  enc->PutDouble(metrics.fairness.response_max_min);
  enc->PutDouble(metrics.fairness.billed_jain);
  enc->PutDouble(metrics.fairness.billed_max_min);
  SaveClusterMetrics(metrics.cluster, enc);
}

Status RestoreSimMetrics(Decoder* dec, SimMetrics* metrics) {
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadString(&metrics->scheme_name));
  CLOUDCACHE_RETURN_IF_ERROR(RestoreQueryCounters(dec, metrics));
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadMoney(&metrics->final_credit));
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadU64(&metrics->final_resident_bytes));
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadU32(&metrics->final_extra_nodes));
  CLOUDCACHE_RETURN_IF_ERROR(RestoreTimeSeries(dec, &metrics->cost_over_time));
  CLOUDCACHE_RETURN_IF_ERROR(
      RestoreTimeSeries(dec, &metrics->credit_over_time));
  uint64_t tenant_count = 0;
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadLength(&tenant_count));
  metrics->tenants.clear();
  metrics->tenants.resize(tenant_count);
  for (TenantMetrics& tenant : metrics->tenants) {
    CLOUDCACHE_RETURN_IF_ERROR(dec->ReadU32(&tenant.tenant_id));
    CLOUDCACHE_RETURN_IF_ERROR(RestoreQueryCounters(dec, &tenant));
    CLOUDCACHE_RETURN_IF_ERROR(dec->ReadMoney(&tenant.final_regret));
  }
  CLOUDCACHE_RETURN_IF_ERROR(
      dec->ReadDouble(&metrics->fairness.response_jain));
  CLOUDCACHE_RETURN_IF_ERROR(
      dec->ReadDouble(&metrics->fairness.response_max_min));
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadDouble(&metrics->fairness.billed_jain));
  CLOUDCACHE_RETURN_IF_ERROR(
      dec->ReadDouble(&metrics->fairness.billed_max_min));
  return RestoreClusterMetrics(dec, &metrics->cluster);
}

}  // namespace persist
}  // namespace cloudcache
