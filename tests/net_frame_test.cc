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
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/crc32.h"
#include "src/common/json.h"
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

// Seeded frame mutant: one to three edits, each a bit flip, a byte
// overwrite, a truncation, or a lying length. Flips and overwrites skip the
// high half of the length field, so no mutant makes ReadFrame allocate more
// than a few MiB before the stream runs dry; the lies cover that half.
std::vector<uint8_t> MutateFrame(std::vector<uint8_t> bytes, std::mt19937_64& rng) {
  const int edits = 1 + static_cast<int>(rng() % 3);
  for (int e = 0; e < edits && !bytes.empty(); ++e) {
    size_t at = rng() % bytes.size();
    if (at == 6 || at == 7) {
      at -= 2;
    }
    switch (rng() % 4) {
      case 0:
        bytes[at] = static_cast<uint8_t>(bytes[at] ^ (1u << (rng() % 8)));
        break;
      case 1:
        bytes[at] = static_cast<uint8_t>(rng());
        break;
      case 2:
        bytes.resize(at);
        break;
      default: {
        if (bytes.size() < 8) {
          break;
        }
        uint32_t len = 0;
        std::memcpy(&len, bytes.data() + 4, 4);
        const uint32_t lies[] = {0,       len + 1,  len - 1,          len + 4,
                                 len * 2, 1u << 20, kMaxFrameBytes + 1, 0xFFFFFFFFu};
        std::memcpy(bytes.data() + 4, &lies[rng() % std::size(lies)], 4);
      }
    }
  }
  return bytes;
}

TEST(FrameTest, MutatedFramesFailCleanlyOrReturnOriginalPayload) {
  // Every mutant either fails with an error or yields the original payload
  // byte for byte (an edit that rewrote a byte with its own value): the CRC
  // trailer must never let a different payload through.
  std::mt19937_64 rng(20261019);
  size_t crc_rejects = 0;
  for (const size_t size : {0, 1, 7, 8, 9, 15, 16, 63, 1000, 4099}) {
    std::vector<uint8_t> payload(size);
    for (auto& b : payload) {
      b = static_cast<uint8_t>(rng());
    }
    const std::vector<uint8_t> frame = RawFrame(payload);
    for (int i = 0; i < 300; ++i) {
      const std::vector<uint8_t> mutant = MutateFrame(frame, rng);
      FdPair pair;
      if (!mutant.empty()) {
        SendRaw(pair.fds[0], mutant);
      }
      pair.CloseWriter();
      std::vector<uint8_t> got;
      std::string error;
      if (ReadFrame(pair.fds[1], &got, &error)) {
        ASSERT_EQ(got, payload) << "size " << size << " mutant " << i;
      } else {
        EXPECT_FALSE(error.empty());
        crc_rejects += error.find("CRC") != std::string::npos ? 1 : 0;
      }
    }
  }
  EXPECT_GT(crc_rejects, 100u);  // the trailer check itself was exercised
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

// Decodes the body of `src` as the message type its header names, so a
// mutant whose type byte was hit lands in another type's decoder. Returns
// whether the body decoded.
bool DecodeAny(ByteSource& src) {
  const auto header = MessageHeader::Decode(src);
  if (!header.has_value()) {
    return false;
  }
  switch (header->type) {
    case MsgType::kTaskLaunch: return TaskLaunchMsg::Decode(src).has_value();
    case MsgType::kTaskResult: return TaskResultMsg::Decode(src).has_value();
    case MsgType::kBlockPut: return BlockPutMsg::Decode(src).has_value();
    case MsgType::kBlockGet: return BlockGetMsg::Decode(src).has_value();
    case MsgType::kBlockGetResp: return BlockGetRespMsg::Decode(src).has_value();
    case MsgType::kBlockRemove: return BlockRemoveMsg::Decode(src).has_value();
    case MsgType::kBucketPut: return BucketPutMsg::Decode(src).has_value();
    case MsgType::kBucketFetch: return BucketFetchMsg::Decode(src).has_value();
    case MsgType::kBucketFetchResp: return BucketFetchRespMsg::Decode(src).has_value();
    case MsgType::kBucketRemove: return BucketRemoveMsg::Decode(src).has_value();
    case MsgType::kHeartbeat: return HeartbeatMsg::Decode(src).has_value();
    case MsgType::kHeartbeatAck: return HeartbeatAckMsg::Decode(src).has_value();
    case MsgType::kShutdown: return true;  // header-only
    case MsgType::kAck: return AckMsg::Decode(src).has_value();
    case MsgType::kJobSubmit: return JobSubmitMsg::Decode(src).has_value();
    case MsgType::kJobSubmitResp: return JobSubmitRespMsg::Decode(src).has_value();
    case MsgType::kJobStatus: return JobStatusMsg::Decode(src).has_value();
    case MsgType::kJobStatusResp: return JobStatusRespMsg::Decode(src).has_value();
    case MsgType::kTenantStats: return TenantStatsMsg::Decode(src).has_value();
    case MsgType::kTenantStatsResp: return TenantStatsRespMsg::Decode(src).has_value();
  }
  return false;
}

// Seeded hostile-byte generator: one to four edits per mutant, each a bit
// flip, a byte overwrite, or a lying length (the varint of a huge or
// slightly-too-large count written over the bytes at a random offset).
template <typename Bytes>
Bytes Mutate(Bytes bytes, std::mt19937_64& rng) {
  const int edits = 1 + static_cast<int>(rng() % 4);
  for (int e = 0; e < edits && !bytes.empty(); ++e) {
    const size_t at = rng() % bytes.size();
    switch (rng() % 3) {
      case 0:
        bytes[at] = static_cast<typename Bytes::value_type>(bytes[at] ^ (1u << (rng() % 8)));
        break;
      case 1:
        bytes[at] = static_cast<typename Bytes::value_type>(rng());
        break;
      default: {
        const uint64_t lies[] = {bytes.size() - at + 1, bytes.size() * 2, 0xFFFFFFFFull,
                                 ~0ull >> 1, ~0ull};
        ByteSink lie;
        lie.WriteVarint(lies[rng() % std::size(lies)]);
        for (size_t i = 0; i < lie.size() && at + i < bytes.size(); ++i) {
          bytes[at + i] = static_cast<typename Bytes::value_type>(lie.data()[i]);
        }
      }
    }
  }
  return bytes;
}

// Hostile input for one message: every strict prefix of a valid encoding
// must decode to nullopt, and every seeded mutant must either decode or fail
// cleanly — never crash, never read out of bounds (the ASan and UBSan CI legs
// run this too).
template <typename Msg>
void ExpectHostileBytesFailCleanly(const Msg& msg, MsgType type) {
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
  std::mt19937_64 rng(static_cast<uint64_t>(type) * 7919);
  for (int i = 0; i < 2000; ++i) {
    const auto mutant = Mutate(bytes, rng);
    ByteSource src(mutant);
    DecodeAny(src);  // decoding or a clean false are both fine; a crash fails
  }
}

TEST(MessageTest, TruncatedAndMutatedBodiesFailCleanly) {
  TaskLaunchMsg launch;
  launch.job_id = 1;
  launch.closure = "ping";
  launch.args = {1, 2, 3, 4, 5, 6, 7, 8};
  ExpectHostileBytesFailCleanly(launch, MsgType::kTaskLaunch);

  TaskResultMsg result;
  result.ok = true;
  result.error = "e";
  result.payload = {1, 2, 3};
  ExpectHostileBytesFailCleanly(result, MsgType::kTaskResult);

  BlockPutMsg put;
  put.id = BlockId{1, 2};
  put.incarnation = 3;
  put.logical_bytes = 4;
  put.payload = {5, 6, 7};
  ExpectHostileBytesFailCleanly(put, MsgType::kBlockPut);

  BlockGetMsg get;
  get.id = BlockId{1, 2};
  ExpectHostileBytesFailCleanly(get, MsgType::kBlockGet);

  BlockGetRespMsg get_resp;
  get_resp.found = true;
  get_resp.payload = {1};
  ExpectHostileBytesFailCleanly(get_resp, MsgType::kBlockGetResp);

  BlockRemoveMsg remove;
  remove.id = BlockId{1, 2};
  remove.incarnation = 3;
  ExpectHostileBytesFailCleanly(remove, MsgType::kBlockRemove);

  BucketPutMsg bput;
  bput.shuffle_id = 1;
  bput.payload = {1, 2};
  ExpectHostileBytesFailCleanly(bput, MsgType::kBucketPut);

  BucketFetchMsg bfetch;
  bfetch.shuffle_id = 1;
  ExpectHostileBytesFailCleanly(bfetch, MsgType::kBucketFetch);

  BucketFetchRespMsg bresp;
  bresp.found = true;
  bresp.payload = {1};
  ExpectHostileBytesFailCleanly(bresp, MsgType::kBucketFetchResp);

  BucketRemoveMsg bremove;
  bremove.shuffle_id = 1;
  ExpectHostileBytesFailCleanly(bremove, MsgType::kBucketRemove);

  HeartbeatMsg hb;
  hb.seq = 123456789;  // multi-byte varint
  ExpectHostileBytesFailCleanly(hb, MsgType::kHeartbeat);

  HeartbeatAckMsg ack;
  ack.seq = 123456789;
  ack.stats.tasks_executed = 1;
  ExpectHostileBytesFailCleanly(ack, MsgType::kHeartbeatAck);

  AckMsg plain;
  plain.ok = false;
  plain.error = "boom";
  ExpectHostileBytesFailCleanly(plain, MsgType::kAck);

  JobSubmitMsg submit;
  submit.tenant = "gold";
  submit.workload = "pagerank";
  submit.iterations = 3;
  ExpectHostileBytesFailCleanly(submit, MsgType::kJobSubmit);

  JobSubmitRespMsg submit_resp;
  submit_resp.accepted = false;
  submit_resp.error = "over quota";
  ExpectHostileBytesFailCleanly(submit_resp, MsgType::kJobSubmitResp);

  JobStatusMsg status;
  status.server_job_id = 42;
  ExpectHostileBytesFailCleanly(status, MsgType::kJobStatus);

  JobStatusRespMsg status_resp;
  status_resp.known = true;
  status_resp.state = "done";
  status_resp.detail = "rank sum 1000";
  status_resp.elapsed_ms = 12.5;
  ExpectHostileBytesFailCleanly(status_resp, MsgType::kJobStatusResp);

  ExpectHostileBytesFailCleanly(TenantStatsMsg{}, MsgType::kTenantStats);

  TenantStatsRespMsg stats;
  for (const char* name : {"gold", "bronze"}) {
    TenantStatRow row;
    row.name = name;
    row.share_bytes = 1 << 20;
    row.jobs_completed = 7;
    stats.tenants.push_back(row);
  }
  ExpectHostileBytesFailCleanly(stats, MsgType::kTenantStatsResp);
}

TEST(MessageTest, MutatedJsonParsesOrFailsCleanly) {
  const std::string docs[] = {
      R"({"counters":{"task.completed":12,"cache.hits":3},"gauges":[1.5,-2e3,0],)"
      R"("name":"blaze \"live\" \u00e9","ok":true,"none":null})",
      R"([{"ph":"X","ts":10,"dur":4.25,"args":{"rdd":7,"tier":"disk"}},[],{}])",
  };
  std::mt19937_64 rng(20241017);
  for (const std::string& doc : docs) {
    ASSERT_TRUE(json::Parse(doc).has_value()) << doc;
    for (size_t cut = 0; cut < doc.size(); ++cut) {
      json::Parse(std::string_view(doc).substr(0, cut));  // must not crash
    }
    for (int i = 0; i < 4000; ++i) {
      const std::string mutant = Mutate(doc, rng);
      std::string error;
      if (!json::Parse(mutant, &error).has_value()) {
        EXPECT_FALSE(error.empty()) << mutant;
      }
    }
  }
  // Nesting past the parser's depth bound is an error, not a stack overflow.
  EXPECT_FALSE(json::Parse(std::string(100000, '[')).has_value());
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
