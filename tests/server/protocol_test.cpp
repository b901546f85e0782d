// The wire codec is the persistence codec's discipline applied to a
// socket: explicit layout, strict decode. Three properties pin it down:
//
//  1. Round-trip: every message type encodes and decodes to itself,
//     field for field, including the full Query payload.
//  2. Truncation refusal: a payload cut at ANY byte boundary is refused
//     with an error, never misread — the same exhaustive-prefix sweep
//     tests/persist/ runs over snapshots.
//  3. Corruption refusal: unknown type bytes, out-of-range enum values,
//     non-0/1 bools, invalid numeric domains, and trailing garbage are
//     all refused.

#include "src/server/protocol.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/persist/codec.h"

namespace cloudcache::server {
namespace {

/// A fully-populated query exercising every encoded field.
Query SampleQuery() {
  Query q;
  q.id = 41'217;
  q.template_id = 7;
  q.table = 3;
  q.output_columns = {11, 12, 19};
  Predicate date;
  date.column = 12;
  date.selectivity = 0.015625;
  date.equality = false;
  date.clustered = true;
  q.predicates.push_back(date);
  Predicate key;
  key.column = 19;
  key.selectivity = 1.0;
  key.equality = true;
  key.clustered = false;
  q.predicates.push_back(key);
  q.cpu_multiplier = 2.25;
  q.parallel_fraction = 0.875;
  q.result_rows = 123'456;
  q.result_bytes = 987'654'321;
  q.arrival_time = 1'234.5;
  q.tenant_id = 2;
  return q;
}

/// Decodes an encoded payload with the message-appropriate decoder,
/// returning the decode status (PeekType + body + ExpectEnd).
Status DecodeAs(MessageType want, const std::vector<uint8_t>& bytes) {
  persist::Decoder dec(bytes.data(), bytes.size());
  MessageType type = want;
  CLOUDCACHE_RETURN_IF_ERROR(PeekType(&dec, &type));
  if (type != want) return Status::InvalidArgument("wrong type");
  switch (want) {
    case MessageType::kHello: {
      HelloMsg msg;
      return DecodeHello(&dec, &msg);
    }
    case MessageType::kHelloAck: {
      HelloAckMsg msg;
      return DecodeHelloAck(&dec, &msg);
    }
    case MessageType::kQuery: {
      Query query;
      return DecodeQuery(&dec, &query);
    }
    case MessageType::kOutcome: {
      OutcomeMsg msg;
      return DecodeOutcome(&dec, &msg);
    }
    case MessageType::kError: {
      ErrorMsg msg;
      return DecodeError(&dec, &msg);
    }
    case MessageType::kStats:
      return DecodeStats(&dec);
    case MessageType::kStatsAck: {
      StatsAckMsg msg;
      return DecodeStatsAck(&dec, &msg);
    }
    case MessageType::kShutdown:
      return DecodeShutdown(&dec);
    case MessageType::kShutdownAck:
      return DecodeShutdownAck(&dec);
    case MessageType::kStatsSubscribe: {
      StatsSubscribeMsg msg;
      return DecodeStatsSubscribe(&dec, &msg);
    }
  }
  return Status::Internal("unreachable");
}

TEST(ProtocolTest, HelloRoundTrips) {
  HelloMsg msg;
  msg.protocol_version = kProtocolVersion;
  msg.stream_id = kControlStream;
  msg.config_hash = 0xF888359F07649B8Full;
  persist::Encoder enc;
  EncodeHello(msg, &enc);

  persist::Decoder dec(enc.buffer().data(), enc.size());
  MessageType type = MessageType::kError;
  ASSERT_TRUE(PeekType(&dec, &type).ok());
  EXPECT_EQ(type, MessageType::kHello);
  HelloMsg out;
  ASSERT_TRUE(DecodeHello(&dec, &out).ok());
  EXPECT_EQ(out.protocol_version, msg.protocol_version);
  EXPECT_EQ(out.stream_id, msg.stream_id);
  EXPECT_EQ(out.config_hash, msg.config_hash);
}

TEST(ProtocolTest, HelloAckRoundTrips) {
  HelloAckMsg msg;
  msg.protocol_version = 1;
  msg.stream_id = 3;
  msg.config_hash = 0xDEADBEEFCAFEF00Dull;
  msg.num_queries = 50'000;
  msg.next_query_id = 12'000;
  persist::Encoder enc;
  EncodeHelloAck(msg, &enc);

  persist::Decoder dec(enc.buffer().data(), enc.size());
  MessageType type = MessageType::kError;
  ASSERT_TRUE(PeekType(&dec, &type).ok());
  EXPECT_EQ(type, MessageType::kHelloAck);
  HelloAckMsg out;
  ASSERT_TRUE(DecodeHelloAck(&dec, &out).ok());
  EXPECT_EQ(out.protocol_version, msg.protocol_version);
  EXPECT_EQ(out.stream_id, msg.stream_id);
  EXPECT_EQ(out.config_hash, msg.config_hash);
  EXPECT_EQ(out.num_queries, msg.num_queries);
  EXPECT_EQ(out.next_query_id, msg.next_query_id);
}

TEST(ProtocolTest, QueryRoundTripsEveryField) {
  const Query q = SampleQuery();
  persist::Encoder enc;
  EncodeQuery(q, &enc);

  persist::Decoder dec(enc.buffer().data(), enc.size());
  MessageType type = MessageType::kError;
  ASSERT_TRUE(PeekType(&dec, &type).ok());
  EXPECT_EQ(type, MessageType::kQuery);
  Query out;
  ASSERT_TRUE(DecodeQuery(&dec, &out).ok());
  EXPECT_EQ(out.id, q.id);
  EXPECT_EQ(out.template_id, q.template_id);
  EXPECT_EQ(out.table, q.table);
  EXPECT_EQ(out.output_columns, q.output_columns);
  ASSERT_EQ(out.predicates.size(), q.predicates.size());
  for (size_t i = 0; i < q.predicates.size(); ++i) {
    EXPECT_EQ(out.predicates[i].column, q.predicates[i].column);
    EXPECT_EQ(out.predicates[i].selectivity, q.predicates[i].selectivity);
    EXPECT_EQ(out.predicates[i].equality, q.predicates[i].equality);
    EXPECT_EQ(out.predicates[i].clustered, q.predicates[i].clustered);
  }
  EXPECT_EQ(out.cpu_multiplier, q.cpu_multiplier);
  EXPECT_EQ(out.parallel_fraction, q.parallel_fraction);
  EXPECT_EQ(out.result_rows, q.result_rows);
  EXPECT_EQ(out.result_bytes, q.result_bytes);
  EXPECT_EQ(out.arrival_time, q.arrival_time);
  EXPECT_EQ(out.tenant_id, q.tenant_id);
}

TEST(ProtocolTest, OutcomeRoundTrips) {
  OutcomeMsg msg;
  msg.query_id = 99;
  msg.global_index = 1'234;
  msg.served = true;
  msg.access = 2;  // kCacheIndex.
  msg.throttled = true;
  msg.response_seconds = 0.125;
  msg.payment_micros = -7'000'001;
  msg.profit_micros = 3'141'592;
  msg.has_budget_case = true;
  msg.budget_case = 1;  // kCaseB.
  msg.investments = 3;
  msg.evictions = 2;
  persist::Encoder enc;
  EncodeOutcome(msg, &enc);

  persist::Decoder dec(enc.buffer().data(), enc.size());
  MessageType type = MessageType::kError;
  ASSERT_TRUE(PeekType(&dec, &type).ok());
  EXPECT_EQ(type, MessageType::kOutcome);
  OutcomeMsg out;
  ASSERT_TRUE(DecodeOutcome(&dec, &out).ok());
  EXPECT_EQ(out.query_id, msg.query_id);
  EXPECT_EQ(out.global_index, msg.global_index);
  EXPECT_EQ(out.served, msg.served);
  EXPECT_EQ(out.access, msg.access);
  EXPECT_EQ(out.throttled, msg.throttled);
  EXPECT_EQ(out.response_seconds, msg.response_seconds);
  EXPECT_EQ(out.payment_micros, msg.payment_micros);
  EXPECT_EQ(out.profit_micros, msg.profit_micros);
  EXPECT_EQ(out.has_budget_case, msg.has_budget_case);
  EXPECT_EQ(out.budget_case, msg.budget_case);
  EXPECT_EQ(out.investments, msg.investments);
  EXPECT_EQ(out.evictions, msg.evictions);
}

TEST(ProtocolTest, ErrorStatsAndShutdownRoundTrip) {
  ErrorMsg error;
  error.code = ErrorCode::kStreamDiverged;
  error.message = "stream 2 diverged from its twin generator";
  persist::Encoder enc;
  EncodeError(error, &enc);
  {
    persist::Decoder dec(enc.buffer().data(), enc.size());
    MessageType type = MessageType::kHello;
    ASSERT_TRUE(PeekType(&dec, &type).ok());
    EXPECT_EQ(type, MessageType::kError);
    ErrorMsg out;
    ASSERT_TRUE(DecodeError(&dec, &out).ok());
    EXPECT_EQ(out.code, error.code);
    EXPECT_EQ(out.message, error.message);
  }

  StatsAckMsg stats;
  stats.processed = 1'500;
  stats.num_queries = 3'000;
  stats.served = 1'499;
  stats.active_streams = 4;
  stats.credit_micros = -12'345;
  stats.served_in_cache = 321;
  stats.throttled = 17;
  stats.investments = 9;
  stats.evictions = 2;
  StreamStatsMsg slice;
  slice.stream = 0;
  slice.queries = 800;
  slice.served = 799;
  slice.throttled = 17;
  stats.streams.push_back(slice);
  slice.stream = 3;
  slice.queries = 700;
  slice.served = 700;
  slice.throttled = 0;
  stats.streams.push_back(slice);
  enc.Clear();
  EncodeStatsAck(stats, &enc);
  {
    persist::Decoder dec(enc.buffer().data(), enc.size());
    MessageType type = MessageType::kHello;
    ASSERT_TRUE(PeekType(&dec, &type).ok());
    EXPECT_EQ(type, MessageType::kStatsAck);
    StatsAckMsg out;
    ASSERT_TRUE(DecodeStatsAck(&dec, &out).ok());
    EXPECT_EQ(out.processed, stats.processed);
    EXPECT_EQ(out.num_queries, stats.num_queries);
    EXPECT_EQ(out.served, stats.served);
    EXPECT_EQ(out.active_streams, stats.active_streams);
    EXPECT_EQ(out.credit_micros, stats.credit_micros);
    EXPECT_EQ(out.served_in_cache, stats.served_in_cache);
    EXPECT_EQ(out.throttled, stats.throttled);
    EXPECT_EQ(out.investments, stats.investments);
    EXPECT_EQ(out.evictions, stats.evictions);
    ASSERT_EQ(out.streams.size(), stats.streams.size());
    for (size_t i = 0; i < out.streams.size(); ++i) {
      EXPECT_EQ(out.streams[i].stream, stats.streams[i].stream);
      EXPECT_EQ(out.streams[i].queries, stats.streams[i].queries);
      EXPECT_EQ(out.streams[i].served, stats.streams[i].served);
      EXPECT_EQ(out.streams[i].throttled, stats.streams[i].throttled);
    }
  }

  StatsSubscribeMsg subscribe;
  subscribe.every = 250;
  enc.Clear();
  EncodeStatsSubscribe(subscribe, &enc);
  {
    persist::Decoder dec(enc.buffer().data(), enc.size());
    MessageType type = MessageType::kHello;
    ASSERT_TRUE(PeekType(&dec, &type).ok());
    EXPECT_EQ(type, MessageType::kStatsSubscribe);
    StatsSubscribeMsg out;
    ASSERT_TRUE(DecodeStatsSubscribe(&dec, &out).ok());
    EXPECT_EQ(out.every, subscribe.every);
  }
  // A zero cadence would push a frame per served query forever; the
  // decoder refuses it so the server never has to.
  subscribe.every = 0;
  enc.Clear();
  EncodeStatsSubscribe(subscribe, &enc);
  {
    persist::Decoder dec(enc.buffer().data(), enc.size());
    MessageType type = MessageType::kHello;
    ASSERT_TRUE(PeekType(&dec, &type).ok());
    StatsSubscribeMsg out;
    EXPECT_FALSE(DecodeStatsSubscribe(&dec, &out).ok());
  }

  // The bodyless messages.
  for (MessageType type :
       {MessageType::kStats, MessageType::kShutdown,
        MessageType::kShutdownAck}) {
    enc.Clear();
    if (type == MessageType::kStats) EncodeStats(&enc);
    if (type == MessageType::kShutdown) EncodeShutdown(&enc);
    if (type == MessageType::kShutdownAck) EncodeShutdownAck(&enc);
    EXPECT_TRUE(DecodeAs(type, enc.buffer()).ok())
        << MessageTypeName(type);
  }
}

TEST(ProtocolTest, EveryTruncationOfEveryMessageIsRefused) {
  // Encode one of each message, then replay every strict prefix of each
  // payload through its decoder: all must fail, none may crash or
  // succeed on partial data. (Prefix length 0 is the transport's case —
  // ReadFrame refuses empty frames before any decoder runs.)
  std::vector<std::pair<MessageType, std::vector<uint8_t>>> messages;
  persist::Encoder enc;

  HelloMsg hello;
  hello.config_hash = 0x1234;
  EncodeHello(hello, &enc);
  messages.emplace_back(MessageType::kHello, enc.buffer());
  enc.Clear();

  HelloAckMsg ack;
  ack.num_queries = 10;
  EncodeHelloAck(ack, &enc);
  messages.emplace_back(MessageType::kHelloAck, enc.buffer());
  enc.Clear();

  EncodeQuery(SampleQuery(), &enc);
  messages.emplace_back(MessageType::kQuery, enc.buffer());
  enc.Clear();

  OutcomeMsg outcome;
  outcome.served = true;
  EncodeOutcome(outcome, &enc);
  messages.emplace_back(MessageType::kOutcome, enc.buffer());
  enc.Clear();

  ErrorMsg error;
  error.code = ErrorCode::kBadFrame;
  error.message = "x";
  EncodeError(error, &enc);
  messages.emplace_back(MessageType::kError, enc.buffer());
  enc.Clear();

  StatsAckMsg stats;
  stats.streams.push_back(StreamStatsMsg());  // Truncate into the slice.
  EncodeStatsAck(stats, &enc);
  messages.emplace_back(MessageType::kStatsAck, enc.buffer());
  enc.Clear();

  StatsSubscribeMsg subscribe;
  subscribe.every = 100;
  EncodeStatsSubscribe(subscribe, &enc);
  messages.emplace_back(MessageType::kStatsSubscribe, enc.buffer());
  enc.Clear();

  for (const auto& [type, bytes] : messages) {
    ASSERT_TRUE(DecodeAs(type, bytes).ok()) << MessageTypeName(type);
    for (size_t cut = 1; cut < bytes.size(); ++cut) {
      const std::vector<uint8_t> prefix(bytes.begin(),
                                        bytes.begin() + cut);
      EXPECT_FALSE(DecodeAs(type, prefix).ok())
          << MessageTypeName(type) << " truncated to " << cut << " of "
          << bytes.size() << " bytes decoded successfully";
    }
  }
}

static_assert(kProtocolVersion == 2,
              "a wire layout change bumps the protocol version and "
              "recaptures the golden bytes below");

template <typename EncodeFn>
std::string EncodedHex(EncodeFn&& encode) {
  persist::Encoder enc;
  encode(&enc);
  std::string hex;
  char byte[3];
  for (uint8_t b : enc.buffer()) {
    std::snprintf(byte, sizeof(byte), "%02x", b);
    hex += byte;
  }
  return hex;
}

TEST(ProtocolTest, WireBytesMatchGolden) {
  // One message of each type, every field set; the hex was captured when
  // the bodies moved to one field list per message.
  HelloMsg hello;
  hello.stream_id = 3;
  hello.config_hash = 0x0123456789abcdefull;
  EXPECT_EQ(EncodedHex([&](persist::Encoder* e) { EncodeHello(hello, e); }),
            "010200000003000000efcdab8967452301");
  HelloAckMsg ack;
  ack.stream_id = 1;
  ack.config_hash = 0xfedcba9876543210ull;
  ack.num_queries = 6000;
  ack.next_query_id = 42;
  EXPECT_EQ(EncodedHex([&](persist::Encoder* e) { EncodeHelloAck(ack, e); }),
            "0202000000010000001032547698badcfe70170000000000002a0000"
            "0000000000");
  Query query = SampleQuery();
  query.template_id = -7;
  EXPECT_EQ(EncodedHex([&](persist::Encoder* e) { EncodeQuery(query, e); }),
            "0301a1000000000000f9ffffffffffffff0300000003000000000000"
            "000b0000000c0000001300000002000000000000000c000000000000"
            "000000903f000113000000000000000000f03f010000000000000002"
            "40000000000000ec3f40e2010000000000b168de3a00000000000000"
            "00004a934002000000");
  OutcomeMsg outcome;
  outcome.query_id = 41'217;
  outcome.global_index = 99;
  outcome.served = true;
  outcome.access = 1;
  outcome.throttled = true;
  outcome.response_seconds = 3.75;
  outcome.payment_micros = 1'234'567;
  outcome.profit_micros = -89;
  outcome.has_budget_case = true;
  outcome.budget_case = 2;
  outcome.investments = 4;
  outcome.evictions = 5;
  EXPECT_EQ(
      EncodedHex([&](persist::Encoder* e) { EncodeOutcome(outcome, e); }),
      "0401a100000000000063000000000000000101010000000000000e40"
      "87d6120000000000a7ffffffffffffff01020400000005000000");
  ErrorMsg error;
  error.code = ErrorCode::kStreamDiverged;
  error.message = "stream 2 diverged";
  EXPECT_EQ(EncodedHex([&](persist::Encoder* e) { EncodeError(error, e); }),
            "0506110000000000000073747265616d2032206469766572676564");
  EXPECT_EQ(EncodedHex([](persist::Encoder* e) { EncodeStats(e); }),
            "06");
  StatsAckMsg stats;
  stats.processed = 1500;
  stats.num_queries = 6000;
  stats.served = 1490;
  stats.active_streams = 2;
  stats.credit_micros = -250;
  stats.served_in_cache = 700;
  stats.throttled = 3;
  stats.investments = 11;
  stats.evictions = 6;
  stats.streams.push_back(StreamStatsMsg{0, 800, 795, 1});
  stats.streams.push_back(StreamStatsMsg{1, 700, 695, 2});
  EXPECT_EQ(EncodedHex([&](persist::Encoder* e) { EncodeStatsAck(stats, e); }),
            "07dc050000000000007017000000000000d205000000000000020000"
            "0006ffffffffffffffbc0200000000000003000000000000000b0000"
            "00000000000600000000000000020000000000000000000000200300"
            "00000000001b03000000000000010000000000000001000000bc0200"
            "0000000000b7020000000000000200000000000000");
  StatsSubscribeMsg subscribe;
  subscribe.every = 250;
  EXPECT_EQ(EncodedHex([&](persist::Encoder* e) {
              EncodeStatsSubscribe(subscribe, e);
            }),
            "0afa00000000000000");
  EXPECT_EQ(EncodedHex([](persist::Encoder* e) { EncodeShutdown(e); }),
            "08");
  EXPECT_EQ(EncodedHex([](persist::Encoder* e) { EncodeShutdownAck(e); }),
            "09");
}

TEST(ProtocolTest, TrailingBytesAreRefused) {
  persist::Encoder enc;
  EncodeHello(HelloMsg{}, &enc);
  std::vector<uint8_t> bytes = enc.buffer();
  bytes.push_back(0x00);
  EXPECT_FALSE(DecodeAs(MessageType::kHello, bytes).ok());

  enc.Clear();
  EncodeShutdown(&enc);
  bytes = enc.buffer();
  bytes.push_back(0xFF);
  EXPECT_FALSE(DecodeAs(MessageType::kShutdown, bytes).ok());
}

TEST(ProtocolTest, UnknownTypeBytesAreRefused) {
  for (const uint8_t raw : {uint8_t{0}, uint8_t{11}, uint8_t{0xFF}}) {
    const std::vector<uint8_t> bytes = {raw};
    persist::Decoder dec(bytes.data(), bytes.size());
    MessageType type = MessageType::kHello;
    EXPECT_FALSE(PeekType(&dec, &type).ok()) << static_cast<int>(raw);
  }
}

TEST(ProtocolTest, CorruptEnumAndBoolValuesAreRefused) {
  // Outcome.access is the byte right after query_id + global_index
  // (type byte + 2x u64); force it out of range.
  OutcomeMsg outcome;
  persist::Encoder enc;
  EncodeOutcome(outcome, &enc);
  std::vector<uint8_t> bytes = enc.buffer();
  const size_t access_offset = 1 + 8 + 8 + 1;  // type, id, index, served.
  bytes[access_offset] = 3;
  EXPECT_FALSE(DecodeAs(MessageType::kOutcome, bytes).ok());

  // The served bool (one byte earlier) must reject non-0/1.
  bytes = enc.buffer();
  bytes[access_offset - 1] = 2;
  EXPECT_FALSE(DecodeAs(MessageType::kOutcome, bytes).ok());

  // Error.code rejects out-of-range codes.
  ErrorMsg error;
  error.code = ErrorCode::kInternal;
  enc.Clear();
  EncodeError(error, &enc);
  bytes = enc.buffer();
  bytes[1] = 200;  // The code byte follows the type byte.
  EXPECT_FALSE(DecodeAs(MessageType::kError, bytes).ok());
}

TEST(ProtocolTest, InvalidQueryDomainsAreRefused) {
  // The decoder enforces the same numeric domains Query::Validate does:
  // selectivity in (0, 1], finite positive cpu_multiplier, parallel
  // fraction in [0, 1], finite non-negative arrival.
  Query q = SampleQuery();
  q.predicates[0].selectivity = 0.0;
  persist::Encoder enc;
  EncodeQuery(q, &enc);
  EXPECT_FALSE(DecodeAs(MessageType::kQuery, enc.buffer()).ok());

  q = SampleQuery();
  q.cpu_multiplier = std::numeric_limits<double>::infinity();
  enc.Clear();
  EncodeQuery(q, &enc);
  EXPECT_FALSE(DecodeAs(MessageType::kQuery, enc.buffer()).ok());

  q = SampleQuery();
  q.parallel_fraction = 1.5;
  enc.Clear();
  EncodeQuery(q, &enc);
  EXPECT_FALSE(DecodeAs(MessageType::kQuery, enc.buffer()).ok());

  q = SampleQuery();
  q.arrival_time = -1.0;
  enc.Clear();
  EncodeQuery(q, &enc);
  EXPECT_FALSE(DecodeAs(MessageType::kQuery, enc.buffer()).ok());
}

TEST(ProtocolTest, NamesCoverEveryValue) {
  for (uint8_t raw = 1; raw <= 10; ++raw) {
    EXPECT_STRNE(MessageTypeName(static_cast<MessageType>(raw)), "");
  }
  for (uint8_t raw = 1; raw <= 10; ++raw) {
    EXPECT_STRNE(ErrorCodeName(static_cast<ErrorCode>(raw)), "");
  }
}

}  // namespace
}  // namespace cloudcache::server
