// Wire-protocol serialization tests: every message type round-trips through
// its envelope, and hostile bytes — truncated frames, corrupted payloads, bad
// magic, oversize lengths, short message bodies — surface as clean errors
// (false / nullopt), never as crashes or garbage decoded into engine state.
// A live RpcServer keeps small round trips off the delayed-ACK tail.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/crc32.h"
#include "src/net/frame.h"
#include "src/net/message.h"
#include "src/net/rpc.h"
#include "src/serialize/byte_buffer.h"

namespace blaze::net {
namespace {

// A connected fd pair; WriteFrame/ReadFrame only need stream semantics.
struct FdPair {
  int fds[2] = {-1, -1};
  FdPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~FdPair() {
    for (int fd : fds) {
      if (fd >= 0) {
        ::close(fd);
      }
    }
  }
  void CloseWriter() {
    ::close(fds[0]);
    fds[0] = -1;
  }
};

// Builds the exact on-wire bytes of one frame so tests can vandalize them.
std::vector<uint8_t> RawFrame(const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out;
  const uint32_t magic = kFrameMagic;
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t crc = Crc32(payload.data(), payload.size());
  out.resize(12 + payload.size());
  std::memcpy(out.data(), &magic, 4);
  std::memcpy(out.data() + 4, &len, 4);
  std::memcpy(out.data() + 8, payload.data(), payload.size());
  std::memcpy(out.data() + 8 + payload.size(), &crc, 4);
  return out;
}

void SendRaw(int fd, const std::vector<uint8_t>& bytes) {
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));
}

TEST(FrameTest, RoundTripsPayloads) {
  FdPair pair;
  for (const size_t size : {size_t{0}, size_t{1}, size_t{7}, size_t{64 * 1024}}) {
    std::vector<uint8_t> payload(size);
    for (size_t i = 0; i < size; ++i) {
      payload[i] = static_cast<uint8_t>(i * 31 + 7);
    }
    ASSERT_TRUE(WriteFrame(pair.fds[0], payload));
    std::vector<uint8_t> got;
    std::string error;
    ASSERT_TRUE(ReadFrame(pair.fds[1], &got, &error)) << error;
    EXPECT_EQ(got, payload);
  }
}

TEST(FrameTest, CleanEofReadsAsEof) {
  FdPair pair;
  pair.CloseWriter();
  std::vector<uint8_t> got;
  std::string error;
  EXPECT_FALSE(ReadFrame(pair.fds[1], &got, &error));
  EXPECT_EQ(error, "eof");
}

TEST(FrameTest, RejectsBadMagic) {
  FdPair pair;
  std::vector<uint8_t> bytes = RawFrame({1, 2, 3});
  bytes[0] ^= 0xFF;
  SendRaw(pair.fds[0], bytes);
  std::vector<uint8_t> got;
  std::string error;
  EXPECT_FALSE(ReadFrame(pair.fds[1], &got, &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(FrameTest, RejectsOversizeLength) {
  FdPair pair;
  std::vector<uint8_t> bytes = RawFrame({1, 2, 3});
  const uint32_t huge = kMaxFrameBytes + 1;
  std::memcpy(bytes.data() + 4, &huge, 4);  // lie about the payload length
  SendRaw(pair.fds[0], bytes);
  std::vector<uint8_t> got;
  std::string error;
  EXPECT_FALSE(ReadFrame(pair.fds[1], &got, &error));
  EXPECT_NE(error.find("bound"), std::string::npos) << error;
}

TEST(FrameTest, RejectsTruncatedPayload) {
  FdPair pair;
  std::vector<uint8_t> bytes = RawFrame({1, 2, 3, 4, 5, 6, 7, 8});
  bytes.resize(bytes.size() - 7);  // cut into the payload
  SendRaw(pair.fds[0], bytes);
  pair.CloseWriter();
  std::vector<uint8_t> got;
  std::string error;
  EXPECT_FALSE(ReadFrame(pair.fds[1], &got, &error));
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
}

TEST(FrameTest, RejectsTruncatedTrailer) {
  FdPair pair;
  std::vector<uint8_t> bytes = RawFrame({1, 2, 3});
  bytes.resize(bytes.size() - 2);  // cut into the CRC trailer
  SendRaw(pair.fds[0], bytes);
  pair.CloseWriter();
  std::vector<uint8_t> got;
  std::string error;
  EXPECT_FALSE(ReadFrame(pair.fds[1], &got, &error));
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
}

TEST(FrameTest, RejectsCorruptedPayload) {
  FdPair pair;
  std::vector<uint8_t> bytes = RawFrame({10, 20, 30, 40});
  bytes[9] ^= 0x01;  // flip one payload bit; CRC must catch it
  SendRaw(pair.fds[0], bytes);
  std::vector<uint8_t> got;
  std::string error;
  EXPECT_FALSE(ReadFrame(pair.fds[1], &got, &error));
  EXPECT_NE(error.find("CRC"), std::string::npos) << error;
}

TEST(FrameTest, ListenConnectRoundTrip) {
  uint16_t port = 0;
  std::string error;
  const int listen_fd = ListenLocal(0, &port, /*attempts=*/10, &error);
  ASSERT_GE(listen_fd, 0) << error;
  ASSERT_GT(port, 0);

  std::thread server([listen_fd] {
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(conn, 0);
    std::vector<uint8_t> payload;
    ASSERT_TRUE(ReadFrame(conn, &payload));
    ASSERT_TRUE(WriteFrame(conn, payload));  // echo
    ::close(conn);
  });

  const int fd = ConnectLocal(port, /*attempts=*/3, /*timeout_ms=*/2000, &error);
  ASSERT_GE(fd, 0) << error;
  const std::vector<uint8_t> payload = {0xDE, 0xAD, 0xBE, 0xEF};
  ASSERT_TRUE(WriteFrame(fd, payload));
  std::vector<uint8_t> echo;
  ASSERT_TRUE(ReadFrame(fd, &echo, &error)) << error;
  EXPECT_EQ(echo, payload);
  ::close(fd);
  server.join();
  ::close(listen_fd);
}

// Small request/response round trips over a live RpcServer. A response
// written in several sends on a socket without TCP_NODELAY waits for the
// client's delayed ACK (~40 ms on Linux loopback), which lands in the tail.
TEST(RpcTest, SmallRoundTripsDoNotStall) {
  RpcServer server(0, [](const MessageHeader& header, ByteSource& body) {
    const auto ping = HeartbeatMsg::Decode(body);
    if (!ping.has_value()) {
      return std::vector<uint8_t>{};
    }
    HeartbeatAckMsg ack;
    ack.seq = ping->seq;
    return EncodeEnvelope(MsgType::kHeartbeatAck, header.request_id, ack);
  });
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  RpcClient client(server.port(), /*pool_size=*/1);

  constexpr uint64_t kRoundTrips = 200;
  std::vector<double> rtt_ms;
  rtt_ms.reserve(kRoundTrips);
  for (uint64_t i = 0; i < kRoundTrips; ++i) {
    HeartbeatMsg ping;
    ping.seq = i;
    const uint64_t id = client.NextRequestId();
    std::vector<uint8_t> response;
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(client.Call(EncodeEnvelope(MsgType::kHeartbeat, id, ping), &response, &error))
        << error;
    rtt_ms.push_back(
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count());
    ByteSource body(response);
    ASSERT_TRUE(DecodeResponseHeader(response, id, &body).has_value());
    const auto ack = HeartbeatAckMsg::Decode(body);
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(ack->seq, i);
  }
  std::sort(rtt_ms.begin(), rtt_ms.end());
  const double p50 = rtt_ms[rtt_ms.size() / 2];
  const double p99 = rtt_ms[rtt_ms.size() * 99 / 100];
  EXPECT_LT(p99, 20.0) << "p50=" << p50 << "ms p99=" << p99 << "ms";
}

// --- message round-trips ----------------------------------------------------

// Decodes an envelope produced by EncodeEnvelope back into header + body.
template <typename Msg>
std::optional<Msg> DecodeEnvelope(const std::vector<uint8_t>& bytes, MsgType want_type,
                                  uint64_t want_request_id) {
  ByteSource src(bytes);
  const auto header = MessageHeader::Decode(src);
  if (!header || header->type != want_type || header->request_id != want_request_id) {
    return std::nullopt;
  }
  return Msg::Decode(src);
}

TEST(MessageTest, TaskLaunchRoundTrip) {
  TaskLaunchMsg msg;
  msg.job_id = 7;
  msg.stage_id = 3;
  msg.partition = 11;
  msg.closure = "sum_u64";
  msg.args = {1, 2, 3, 255};
  const auto bytes = EncodeEnvelope(MsgType::kTaskLaunch, 42, msg);
  const auto got = DecodeEnvelope<TaskLaunchMsg>(bytes, MsgType::kTaskLaunch, 42);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->job_id, 7);
  EXPECT_EQ(got->stage_id, 3);
  EXPECT_EQ(got->partition, 11u);
  EXPECT_EQ(got->closure, "sum_u64");
  EXPECT_EQ(got->args, msg.args);
}

TEST(MessageTest, TaskResultRoundTrip) {
  TaskResultMsg msg;
  msg.ok = false;
  msg.error = "no such closure";
  msg.payload = {9, 8, 7};
  const auto bytes = EncodeEnvelope(MsgType::kTaskResult, 1, msg);
  const auto got = DecodeEnvelope<TaskResultMsg>(bytes, MsgType::kTaskResult, 1);
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(got->ok);
  EXPECT_EQ(got->error, "no such closure");
  EXPECT_EQ(got->payload, msg.payload);
}

TEST(MessageTest, BlockPutRoundTrip) {
  BlockPutMsg msg;
  msg.id = BlockId{12, 4};
  msg.incarnation = 99;
  msg.logical_bytes = 1 << 20;
  msg.payload.assign(513, 0xAB);
  const auto bytes = EncodeEnvelope(MsgType::kBlockPut, 5, msg);
  const auto got = DecodeEnvelope<BlockPutMsg>(bytes, MsgType::kBlockPut, 5);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->id, msg.id);
  EXPECT_EQ(got->incarnation, 99u);
  EXPECT_EQ(got->logical_bytes, 1u << 20);
  EXPECT_EQ(got->payload, msg.payload);
}

TEST(MessageTest, BlockGetRoundTrip) {
  BlockGetMsg msg;
  msg.id = BlockId{3, 9};
  const auto bytes = EncodeEnvelope(MsgType::kBlockGet, 6, msg);
  const auto got = DecodeEnvelope<BlockGetMsg>(bytes, MsgType::kBlockGet, 6);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->id, msg.id);
}

TEST(MessageTest, BlockGetRespRoundTrip) {
  BlockGetRespMsg msg;
  msg.found = true;
  msg.from_memory = false;
  msg.payload = {0, 0, 1};
  const auto bytes = EncodeEnvelope(MsgType::kBlockGetResp, 7, msg);
  const auto got = DecodeEnvelope<BlockGetRespMsg>(bytes, MsgType::kBlockGetResp, 7);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->found);
  EXPECT_FALSE(got->from_memory);
  EXPECT_EQ(got->payload, msg.payload);
}

TEST(MessageTest, BlockRemoveRoundTrip) {
  BlockRemoveMsg msg;
  msg.id = BlockId{8, 2};
  msg.incarnation = 17;
  msg.include_memory = false;
  msg.include_disk = true;
  const auto bytes = EncodeEnvelope(MsgType::kBlockRemove, 8, msg);
  const auto got = DecodeEnvelope<BlockRemoveMsg>(bytes, MsgType::kBlockRemove, 8);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->id, msg.id);
  EXPECT_EQ(got->incarnation, 17u);
  EXPECT_FALSE(got->include_memory);
  EXPECT_TRUE(got->include_disk);
}

TEST(MessageTest, BucketPutRoundTrip) {
  BucketPutMsg msg;
  msg.shuffle_id = 5;
  msg.map_part = 2;
  msg.reduce_part = 6;
  msg.incarnation = 31;
  msg.payload = {4, 5, 6};
  const auto bytes = EncodeEnvelope(MsgType::kBucketPut, 9, msg);
  const auto got = DecodeEnvelope<BucketPutMsg>(bytes, MsgType::kBucketPut, 9);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->shuffle_id, 5);
  EXPECT_EQ(got->map_part, 2u);
  EXPECT_EQ(got->reduce_part, 6u);
  EXPECT_EQ(got->incarnation, 31u);
  EXPECT_EQ(got->payload, msg.payload);
}

TEST(MessageTest, BucketFetchRoundTrip) {
  BucketFetchMsg msg;
  msg.shuffle_id = 4;
  msg.map_part = 1;
  msg.reduce_part = 3;
  const auto bytes = EncodeEnvelope(MsgType::kBucketFetch, 10, msg);
  const auto got = DecodeEnvelope<BucketFetchMsg>(bytes, MsgType::kBucketFetch, 10);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->shuffle_id, 4);
  EXPECT_EQ(got->map_part, 1u);
  EXPECT_EQ(got->reduce_part, 3u);
}

TEST(MessageTest, BucketFetchRespRoundTrip) {
  BucketFetchRespMsg msg;
  msg.found = true;
  msg.payload = {42};
  const auto bytes = EncodeEnvelope(MsgType::kBucketFetchResp, 11, msg);
  const auto got = DecodeEnvelope<BucketFetchRespMsg>(bytes, MsgType::kBucketFetchResp, 11);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->found);
  EXPECT_EQ(got->payload, msg.payload);
}

TEST(MessageTest, BucketRemoveRoundTrip) {
  BucketRemoveMsg msg;
  msg.shuffle_id = 2;
  msg.map_part = 7;
  msg.reduce_part = 0;
  msg.incarnation = 55;
  msg.all = true;
  const auto bytes = EncodeEnvelope(MsgType::kBucketRemove, 12, msg);
  const auto got = DecodeEnvelope<BucketRemoveMsg>(bytes, MsgType::kBucketRemove, 12);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->shuffle_id, 2);
  EXPECT_EQ(got->map_part, 7u);
  EXPECT_EQ(got->reduce_part, 0u);
  EXPECT_EQ(got->incarnation, 55u);
  EXPECT_TRUE(got->all);
}

TEST(MessageTest, HeartbeatRoundTrip) {
  HeartbeatMsg msg;
  msg.seq = 1234567;
  const auto bytes = EncodeEnvelope(MsgType::kHeartbeat, 13, msg);
  const auto got = DecodeEnvelope<HeartbeatMsg>(bytes, MsgType::kHeartbeat, 13);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->seq, 1234567u);
}

TEST(MessageTest, HeartbeatAckRoundTrip) {
  HeartbeatAckMsg msg;
  msg.seq = 88;
  msg.stats.pid = 4242;
  msg.stats.live_bytes = 1 << 16;
  msg.stats.disk_bytes = 1 << 18;
  msg.stats.block_count = 12;
  msg.stats.bucket_count = 34;
  msg.stats.bucket_bytes = 1 << 10;
  msg.stats.pinned_blocks = 2;
  msg.stats.inflight_tasks = 1;
  msg.stats.tasks_executed = 900;
  const auto bytes = EncodeEnvelope(MsgType::kHeartbeatAck, 14, msg);
  const auto got = DecodeEnvelope<HeartbeatAckMsg>(bytes, MsgType::kHeartbeatAck, 14);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->seq, 88u);
  EXPECT_EQ(got->stats.pid, 4242);
  EXPECT_EQ(got->stats.live_bytes, 1u << 16);
  EXPECT_EQ(got->stats.disk_bytes, 1u << 18);
  EXPECT_EQ(got->stats.block_count, 12u);
  EXPECT_EQ(got->stats.bucket_count, 34u);
  EXPECT_EQ(got->stats.bucket_bytes, 1u << 10);
  EXPECT_EQ(got->stats.pinned_blocks, 2u);
  EXPECT_EQ(got->stats.inflight_tasks, 1u);
  EXPECT_EQ(got->stats.tasks_executed, 900u);
}

TEST(MessageTest, AckRoundTrip) {
  AckMsg msg;
  msg.ok = false;
  msg.error = "incarnation mismatch";
  const auto bytes = EncodeEnvelope(MsgType::kAck, 15, msg);
  const auto got = DecodeEnvelope<AckMsg>(bytes, MsgType::kAck, 15);
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(got->ok);
  EXPECT_EQ(got->error, "incarnation mismatch");
}

// --- malformed bodies -------------------------------------------------------

// Every strict prefix of a valid encoding must decode to nullopt — not crash,
// not read out of bounds. This sweeps all message types at every cut point.
template <typename Msg>
void ExpectTruncationsFailCleanly(const Msg& msg, MsgType type) {
  const auto bytes = EncodeEnvelope(type, 77, msg);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    ByteSource src(bytes.data(), cut);
    const auto header = MessageHeader::Decode(src);
    if (!header.has_value()) {
      continue;  // cut fell inside the header — already a clean failure
    }
    EXPECT_FALSE(Msg::Decode(src).has_value())
        << MsgTypeName(type) << " decoded from a " << cut << "-byte prefix of "
        << bytes.size() << " bytes";
  }
}

TEST(MessageTest, TruncatedBodiesFailCleanly) {
  TaskLaunchMsg launch;
  launch.job_id = 1;
  launch.closure = "ping";
  launch.args = {1, 2, 3, 4, 5, 6, 7, 8};
  ExpectTruncationsFailCleanly(launch, MsgType::kTaskLaunch);

  TaskResultMsg result;
  result.ok = true;
  result.error = "e";
  result.payload = {1, 2, 3};
  ExpectTruncationsFailCleanly(result, MsgType::kTaskResult);

  BlockPutMsg put;
  put.id = BlockId{1, 2};
  put.incarnation = 3;
  put.logical_bytes = 4;
  put.payload = {5, 6, 7};
  ExpectTruncationsFailCleanly(put, MsgType::kBlockPut);

  BlockGetMsg get;
  get.id = BlockId{1, 2};
  ExpectTruncationsFailCleanly(get, MsgType::kBlockGet);

  BlockGetRespMsg get_resp;
  get_resp.found = true;
  get_resp.payload = {1};
  ExpectTruncationsFailCleanly(get_resp, MsgType::kBlockGetResp);

  BlockRemoveMsg remove;
  remove.id = BlockId{1, 2};
  remove.incarnation = 3;
  ExpectTruncationsFailCleanly(remove, MsgType::kBlockRemove);

  BucketPutMsg bput;
  bput.shuffle_id = 1;
  bput.payload = {1, 2};
  ExpectTruncationsFailCleanly(bput, MsgType::kBucketPut);

  BucketFetchMsg bfetch;
  bfetch.shuffle_id = 1;
  ExpectTruncationsFailCleanly(bfetch, MsgType::kBucketFetch);

  BucketFetchRespMsg bresp;
  bresp.found = true;
  bresp.payload = {1};
  ExpectTruncationsFailCleanly(bresp, MsgType::kBucketFetchResp);

  BucketRemoveMsg bremove;
  bremove.shuffle_id = 1;
  ExpectTruncationsFailCleanly(bremove, MsgType::kBucketRemove);

  HeartbeatMsg hb;
  hb.seq = 123456789;  // multi-byte varint
  ExpectTruncationsFailCleanly(hb, MsgType::kHeartbeat);

  HeartbeatAckMsg ack;
  ack.seq = 123456789;
  ack.stats.tasks_executed = 1;
  ExpectTruncationsFailCleanly(ack, MsgType::kHeartbeatAck);

  AckMsg plain;
  plain.ok = false;
  plain.error = "boom";
  ExpectTruncationsFailCleanly(plain, MsgType::kAck);
}

TEST(MessageTest, LyingLengthPrefixFailsCleanly) {
  // A payload length prefix claiming more bytes than the body carries must
  // not over-read. Craft: header + varint(1000) + 3 actual bytes.
  ByteSink sink;
  MessageHeader{MsgType::kTaskResult, 1}.EncodeTo(sink);
  sink.WritePod<uint8_t>(1);  // ok = true
  WriteString(sink, "");      // empty error
  sink.WriteVarint(1000);     // payload length lie
  sink.WritePod<uint8_t>(1);
  sink.WritePod<uint8_t>(2);
  sink.WritePod<uint8_t>(3);
  const auto bytes = sink.TakeData();
  ByteSource src(bytes);
  ASSERT_TRUE(MessageHeader::Decode(src).has_value());
  EXPECT_FALSE(TaskResultMsg::Decode(src).has_value());
}

TEST(MessageTest, EmptySourceHeaderFailsCleanly) {
  std::vector<uint8_t> empty;
  ByteSource src(empty);
  EXPECT_FALSE(MessageHeader::Decode(src).has_value());
}

TEST(MessageTest, MsgTypeNamesCoverProtocol) {
  for (uint8_t raw = 1; raw <= 14; ++raw) {
    EXPECT_STRNE(MsgTypeName(static_cast<MsgType>(raw)), "");
  }
}

}  // namespace
}  // namespace blaze::net
