#include "src/server/protocol.h"

#include <cmath>

namespace cloudcache {
namespace server {

const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kHello:
      return "Hello";
    case MessageType::kHelloAck:
      return "HelloAck";
    case MessageType::kQuery:
      return "Query";
    case MessageType::kOutcome:
      return "Outcome";
    case MessageType::kError:
      return "Error";
    case MessageType::kStats:
      return "Stats";
    case MessageType::kStatsAck:
      return "StatsAck";
    case MessageType::kShutdown:
      return "Shutdown";
    case MessageType::kShutdownAck:
      return "ShutdownAck";
    case MessageType::kStatsSubscribe:
      return "StatsSubscribe";
  }
  return "unknown";
}

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadFrame:
      return "bad-frame";
    case ErrorCode::kVersionMismatch:
      return "version-mismatch";
    case ErrorCode::kConfigMismatch:
      return "config-mismatch";
    case ErrorCode::kStreamClaimed:
      return "stream-claimed";
    case ErrorCode::kStreamOutOfRange:
      return "stream-out-of-range";
    case ErrorCode::kStreamDiverged:
      return "stream-diverged";
    case ErrorCode::kRunComplete:
      return "run-complete";
    case ErrorCode::kShuttingDown:
      return "shutting-down";
    case ErrorCode::kNotAllowed:
      return "not-allowed";
    case ErrorCode::kInternal:
      return "internal";
  }
  return "unknown";
}

Status PeekType(persist::Decoder* dec, MessageType* type) {
  uint8_t raw = 0;
  dec->U8(raw);
  CLOUDCACHE_RETURN_IF_ERROR(dec->status());
  if (raw < static_cast<uint8_t>(MessageType::kHello) ||
      raw > static_cast<uint8_t>(MessageType::kStatsSubscribe)) {
    return Status::InvalidArgument("unknown message type " +
                                   std::to_string(raw));
  }
  *type = static_cast<MessageType>(raw);
  return Status::OK();
}

namespace {

// Message field lists: each body is laid out once, run by the Encode*
// functions with an Encoder and by the Decode* functions with a Decoder.
// The type byte is not part of a body (PeekType consumes it).

void PutType(MessageType type, persist::Encoder* enc) {
  enc->U8(static_cast<uint8_t>(type));
}

template <typename Codec, typename Msg>
void HelloFields(Codec& c, Msg& msg) {
  c.U32(msg.protocol_version);
  c.U32(msg.stream_id);
  c.U64(msg.config_hash);
}

template <typename Codec, typename Msg>
void HelloAckFields(Codec& c, Msg& msg) {
  c.U32(msg.protocol_version);
  c.U32(msg.stream_id);
  c.U64(msg.config_hash);
  c.U64(msg.num_queries);
  c.U64(msg.next_query_id);
}

template <typename Codec, typename Q>
void QueryFields(Codec& c, Q& query) {
  c.U64(query.id);
  int64_t template_id = query.template_id;
  c.I64(template_id);
  if constexpr (Codec::kDecoding) {
    query.template_id = static_cast<int>(template_id);
  }
  c.U32(query.table);
  c.Seq(query.output_columns, [&c](auto& column) { c.U32(column); });
  c.Seq(query.predicates, [&c](auto& predicate) {
    c.U32(predicate.column);
    c.F64(predicate.selectivity);
    c.Bool(predicate.equality);
    c.Bool(predicate.clustered);
  });
  c.F64(query.cpu_multiplier);
  c.F64(query.parallel_fraction);
  c.U64(query.result_rows);
  c.U64(query.result_bytes);
  c.F64(query.arrival_time);
  c.U32(query.tenant_id);
}

template <typename Codec, typename Msg>
void OutcomeFields(Codec& c, Msg& msg) {
  c.U64(msg.query_id);
  c.U64(msg.global_index);
  c.Bool(msg.served);
  c.U8(msg.access);
  c.Bool(msg.throttled);
  c.F64(msg.response_seconds);
  c.I64(msg.payment_micros);
  c.I64(msg.profit_micros);
  c.Bool(msg.has_budget_case);
  c.U8(msg.budget_case);
  c.U32(msg.investments);
  c.U32(msg.evictions);
}

template <typename Codec, typename Msg>
void StatsAckFields(Codec& c, Msg& msg) {
  c.U64(msg.processed);
  c.U64(msg.num_queries);
  c.U64(msg.served);
  c.U32(msg.active_streams);
  c.I64(msg.credit_micros);
  c.U64(msg.served_in_cache);
  c.U64(msg.throttled);
  c.U64(msg.investments);
  c.U64(msg.evictions);
  c.Seq(msg.streams, [&c](auto& stream) {
    c.U32(stream.stream);
    c.U64(stream.queries);
    c.U64(stream.served);
    c.U64(stream.throttled);
  });
}

}  // namespace

void EncodeHello(const HelloMsg& msg, persist::Encoder* enc) {
  PutType(MessageType::kHello, enc);
  HelloFields(*enc, msg);
}

Status DecodeHello(persist::Decoder* dec, HelloMsg* msg) {
  HelloFields(*dec, *msg);
  return dec->ExpectEnd();
}

void EncodeHelloAck(const HelloAckMsg& msg, persist::Encoder* enc) {
  PutType(MessageType::kHelloAck, enc);
  HelloAckFields(*enc, msg);
}

Status DecodeHelloAck(persist::Decoder* dec, HelloAckMsg* msg) {
  HelloAckFields(*dec, *msg);
  return dec->ExpectEnd();
}

void EncodeQuery(const Query& query, persist::Encoder* enc) {
  PutType(MessageType::kQuery, enc);
  QueryFields(*enc, query);
}

Status DecodeQuery(persist::Decoder* dec, Query* query) {
  *query = Query();
  QueryFields(*dec, *query);
  CLOUDCACHE_RETURN_IF_ERROR(dec->status());
  // Same domains Query::Validate enforces; reject here so a hostile frame
  // never reaches the cost model.
  for (const Predicate& predicate : query->predicates) {
    if (!(predicate.selectivity > 0) || predicate.selectivity > 1.0) {
      return Status::InvalidArgument("query predicate selectivity not in "
                                     "(0, 1]");
    }
  }
  if (!std::isfinite(query->cpu_multiplier) ||
      !(query->cpu_multiplier > 0) ||
      !std::isfinite(query->parallel_fraction) ||
      query->parallel_fraction < 0 || query->parallel_fraction > 1.0 ||
      !std::isfinite(query->arrival_time) || query->arrival_time < 0) {
    return Status::InvalidArgument("query carries non-finite or "
                                   "out-of-domain numeric fields");
  }
  return dec->ExpectEnd();
}

void EncodeOutcome(const OutcomeMsg& msg, persist::Encoder* enc) {
  PutType(MessageType::kOutcome, enc);
  OutcomeFields(*enc, msg);
}

Status DecodeOutcome(persist::Decoder* dec, OutcomeMsg* msg) {
  OutcomeFields(*dec, *msg);
  CLOUDCACHE_RETURN_IF_ERROR(dec->status());
  if (msg->access > 2 || msg->budget_case > 2) {
    return Status::InvalidArgument(
        "outcome carries an unknown access kind or budget case");
  }
  return dec->ExpectEnd();
}

void EncodeError(const ErrorMsg& msg, persist::Encoder* enc) {
  PutType(MessageType::kError, enc);
  enc->U8(static_cast<uint8_t>(msg.code));
  enc->Str(msg.message);
}

Status DecodeError(persist::Decoder* dec, ErrorMsg* msg) {
  uint8_t code = 0;
  dec->U8(code);
  dec->Str(msg->message);
  CLOUDCACHE_RETURN_IF_ERROR(dec->status());
  if (code < static_cast<uint8_t>(ErrorCode::kBadFrame) ||
      code > static_cast<uint8_t>(ErrorCode::kInternal)) {
    return Status::InvalidArgument("unknown error code " +
                                   std::to_string(code));
  }
  msg->code = static_cast<ErrorCode>(code);
  return dec->ExpectEnd();
}

void EncodeStats(persist::Encoder* enc) { PutType(MessageType::kStats, enc); }

Status DecodeStats(persist::Decoder* dec) { return dec->ExpectEnd(); }

void EncodeStatsAck(const StatsAckMsg& msg, persist::Encoder* enc) {
  PutType(MessageType::kStatsAck, enc);
  StatsAckFields(*enc, msg);
}

Status DecodeStatsAck(persist::Decoder* dec, StatsAckMsg* msg) {
  StatsAckFields(*dec, *msg);
  return dec->ExpectEnd();
}

void EncodeStatsSubscribe(const StatsSubscribeMsg& msg,
                          persist::Encoder* enc) {
  PutType(MessageType::kStatsSubscribe, enc);
  enc->U64(msg.every);
}

Status DecodeStatsSubscribe(persist::Decoder* dec, StatsSubscribeMsg* msg) {
  dec->U64(msg->every);
  CLOUDCACHE_RETURN_IF_ERROR(dec->status());
  if (msg->every == 0) {
    return Status::InvalidArgument("StatsSubscribe.every must be >= 1");
  }
  return dec->ExpectEnd();
}

void EncodeShutdown(persist::Encoder* enc) {
  PutType(MessageType::kShutdown, enc);
}

Status DecodeShutdown(persist::Decoder* dec) { return dec->ExpectEnd(); }

void EncodeShutdownAck(persist::Encoder* enc) {
  PutType(MessageType::kShutdownAck, enc);
}

Status DecodeShutdownAck(persist::Decoder* dec) { return dec->ExpectEnd(); }

}  // namespace server
}  // namespace cloudcache
