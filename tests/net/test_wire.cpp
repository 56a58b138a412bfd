// Wire protocol unit tests: frame layout, per-type encode/decode
// round-trips, primitive bounds checking, and FrameAssembler chunking.
// The adversarial/mutation side lives in test_wire_fuzz.cpp.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/wire.hpp"

namespace impress::net {
namespace {

HelloMsg sample_hello() {
  return {.worker_id = 7,
          .wire_version = kWireVersion,
          .slots = 3,
          .build_tag = "impress-net/1"};
}

AssignShardMsg sample_assign() {
  AssignShardMsg m;
  m.shard_id = 2;
  m.epoch = 5;
  m.seed = 0xDEADBEEFCAFEF00DULL;
  m.campaign_name = "IM-RP";
  m.target_names = {"NHERF3", "DET-A", "DET-B"};
  m.checkpoint_ordinal = 9;
  m.checkpoint_json = "{\"ordinal\":9}";
  return m;
}

TEST(Wire, FrameHeaderLayout) {
  const std::vector<std::uint8_t> frame = encode_frame(sample_hello());
  ASSERT_GE(frame.size(), kHeaderSize);
  EXPECT_EQ(frame[0], kMagic0);
  EXPECT_EQ(frame[1], kMagic1);
  EXPECT_EQ(frame[2], kWireVersion);
  EXPECT_EQ(frame[3], static_cast<std::uint8_t>(MsgType::kHello));
  const std::uint32_t len = static_cast<std::uint32_t>(frame[4]) |
                            (static_cast<std::uint32_t>(frame[5]) << 8) |
                            (static_cast<std::uint32_t>(frame[6]) << 16) |
                            (static_cast<std::uint32_t>(frame[7]) << 24);
  EXPECT_EQ(len, frame.size() - kHeaderSize);
}

TEST(Wire, HelloRoundTrip) {
  const HelloMsg m = sample_hello();
  EXPECT_EQ(std::get<HelloMsg>(decode_frame(encode_frame(m))), m);
}

TEST(Wire, AssignShardRoundTrip) {
  const AssignShardMsg m = sample_assign();
  EXPECT_EQ(std::get<AssignShardMsg>(decode_frame(encode_frame(m))), m);
}

TEST(Wire, TaskSubmitRoundTrip) {
  TaskSubmitMsg m;
  m.shard_id = 1;
  m.epoch = 2;
  m.task_seq = 42;
  m.kind = TaskSubmitMsg::Kind::kRemoteTask;
  m.payload = std::string("spec\0with\x01nul", 13);
  EXPECT_EQ(std::get<TaskSubmitMsg>(decode_frame(encode_frame(m))), m);
}

TEST(Wire, TaskResultRoundTrip) {
  TaskResultMsg m;
  m.shard_id = 3;
  m.epoch = 1;
  m.task_seq = 77;
  m.status = TaskResultMsg::Status::kError;
  m.payload = "boom";
  EXPECT_EQ(std::get<TaskResultMsg>(decode_frame(encode_frame(m))), m);
}

TEST(Wire, HeartbeatRoundTrip) {
  HeartbeatMsg m;
  m.worker_id = 9;
  m.tick = 123456789ULL;
  m.active_shard = kNoShard;
  m.busy = 1;
  EXPECT_EQ(std::get<HeartbeatMsg>(decode_frame(encode_frame(m))), m);
}

TEST(Wire, CheckpointShardRoundTrip) {
  CheckpointShardMsg m;
  m.shard_id = 0;
  m.epoch = 4;
  m.ordinal = 17;
  m.checkpoint_json = std::string(100000, 'x');  // large payload path
  EXPECT_EQ(std::get<CheckpointShardMsg>(decode_frame(encode_frame(m))), m);
}

TEST(Wire, WorkerDeadRoundTrip) {
  WorkerDeadMsg m;
  m.worker_id = 2;
  m.shard_id = 1;
  m.epoch = 3;
  m.reason = "heartbeat timeout";
  EXPECT_EQ(std::get<WorkerDeadMsg>(decode_frame(encode_frame(m))), m);
}

TEST(Wire, EmptyStringsAndListsRoundTrip) {
  AssignShardMsg m;  // all strings empty, list empty
  EXPECT_EQ(std::get<AssignShardMsg>(decode_frame(encode_frame(m))), m);
}

TEST(Wire, TypeOfMatchesVariant) {
  EXPECT_EQ(type_of(Message{sample_hello()}), MsgType::kHello);
  EXPECT_EQ(type_of(Message{sample_assign()}), MsgType::kAssignShard);
  EXPECT_EQ(type_of(Message{TaskSubmitMsg{}}), MsgType::kTaskSubmit);
  EXPECT_EQ(type_of(Message{TaskResultMsg{}}), MsgType::kTaskResult);
  EXPECT_EQ(type_of(Message{HeartbeatMsg{}}), MsgType::kHeartbeat);
  EXPECT_EQ(type_of(Message{CheckpointShardMsg{}}), MsgType::kCheckpointShard);
  EXPECT_EQ(type_of(Message{WorkerDeadMsg{}}), MsgType::kWorkerDead);
}

TEST(Wire, TypeIndexIsDense) {
  EXPECT_EQ(type_index(MsgType::kHello), 0u);
  EXPECT_EQ(type_index(MsgType::kWorkerDead), kMsgTypeCount - 1);
  for (std::uint8_t raw = 1; raw <= kMsgTypeCount; ++raw) {
    EXPECT_TRUE(is_valid_type(raw));
  }
  EXPECT_FALSE(is_valid_type(0));
  EXPECT_FALSE(is_valid_type(kMsgTypeCount + 1));
}

TEST(Wire, ReaderRejectsOverRead) {
  WireWriter w;
  w.u32(5);
  const std::vector<std::uint8_t> buf = w.bytes();
  WireReader r(buf.data(), buf.size());
  EXPECT_EQ(r.u32(), 5u);
  EXPECT_THROW((void)r.u8(), WireError);
}

TEST(Wire, ReaderRejectsTrailingBytes) {
  WireWriter w;
  w.u8(1);
  w.u8(2);
  const std::vector<std::uint8_t> buf = w.bytes();
  WireReader r(buf.data(), buf.size());
  EXPECT_EQ(r.u8(), 1u);
  EXPECT_THROW(r.finish(), WireError);
}

TEST(Wire, StringLengthLieRejected) {
  WireWriter w;
  w.u32(1000);  // declares 1000 bytes...
  w.u8('x');    // ...provides 1
  const std::vector<std::uint8_t> buf = w.bytes();
  WireReader r(buf.data(), buf.size());
  EXPECT_THROW((void)r.str(), WireError);
}

TEST(Wire, F64BitExact) {
  WireWriter w;
  w.f64(0.1);
  w.f64(-0.0);
  w.f64(1e308);
  const std::vector<std::uint8_t> buf = w.bytes();
  WireReader r(buf.data(), buf.size());
  EXPECT_EQ(r.f64(), 0.1);
  const double nz = r.f64();
  EXPECT_EQ(nz, 0.0);
  EXPECT_TRUE(std::signbit(nz));
  EXPECT_EQ(r.f64(), 1e308);
  r.finish();
}

TEST(Wire, AssemblerReassemblesByteAtATime) {
  std::vector<std::uint8_t> stream = encode_frame(sample_assign());
  const std::vector<std::uint8_t> second = encode_frame(sample_hello());
  stream.insert(stream.end(), second.begin(), second.end());

  FrameAssembler assembler;
  std::vector<Message> out;
  for (const std::uint8_t b : stream) {
    assembler.feed(&b, 1);
    while (auto m = assembler.next()) {
      out.push_back(std::move(*m));
    }
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(std::get<AssignShardMsg>(out[0]), sample_assign());
  EXPECT_EQ(std::get<HelloMsg>(out[1]), sample_hello());
  EXPECT_EQ(assembler.buffered(), 0u);
  EXPECT_FALSE(assembler.poisoned());
}

TEST(Wire, AssemblerPoisonsOnBadMagic) {
  FrameAssembler assembler;
  const std::uint8_t junk[kHeaderSize] = {0xFF, 0xFF, 0, 0, 0, 0, 0, 0};
  EXPECT_THROW(
      {
        assembler.feed(junk, sizeof(junk));
        (void)assembler.next();
      },
      WireError);
  EXPECT_TRUE(assembler.poisoned());
}

// Every byte value, `n` bytes long: a stand-in for a multi-MB checkpoint.
std::string patterned(std::size_t n, std::uint64_t seed) {
  std::string s(n, '\0');
  for (char& c : s) {
    seed = common::splitmix64(seed);
    c = static_cast<char>(seed & 0xFF);
  }
  return s;
}

// encode_frame's bytes are the wire format. Pin them over every message
// type, empty strings and lists, both enum values of each enum field and
// multi-MB string fields. The constants were recorded from the encoder
// that wrote each field byte by byte into a payload buffer and then
// copied that payload behind a separate header.
TEST(Wire, FrameBytesMatchDigest) {
  constexpr std::size_t kFrames = 16;
  constexpr std::size_t kBytes = 9'438'818;
  constexpr std::uint64_t kDigest = 1759535512097308742ULL;

  AssignShardMsg resume = sample_assign();
  resume.checkpoint_json = patterned(3 << 20, 1);
  TaskSubmitMsg run_shard;
  run_shard.shard_id = 4;
  run_shard.epoch = 2;
  run_shard.task_seq = 0x0102030405060708ULL;
  TaskSubmitMsg remote = run_shard;
  remote.kind = TaskSubmitMsg::Kind::kRemoteTask;
  remote.payload = patterned(1000, 2);
  TaskResultMsg ok;
  ok.shard_id = 5;
  ok.epoch = 7;
  ok.task_seq = 99;
  ok.payload = patterned(1 << 20, 3);
  TaskResultMsg error = ok;
  error.status = TaskResultMsg::Status::kError;
  error.payload = "campaign mismatch";
  AssignShardMsg empty_names;
  empty_names.target_names = {"", "NHERF3", ""};
  const std::vector<Message> messages = {
      sample_hello(),
      HelloMsg{},
      sample_assign(),
      AssignShardMsg{},
      resume,
      run_shard,
      remote,
      ok,
      error,
      HeartbeatMsg{.worker_id = 3, .tick = 1ULL << 40, .active_shard = 2,
                   .busy = 1},
      HeartbeatMsg{},
      CheckpointShardMsg{.shard_id = 1,
                         .epoch = 0xFFFFFFFFu,
                         .ordinal = 12,
                         .checkpoint_json = patterned(5 << 20, 4)},
      CheckpointShardMsg{},
      WorkerDeadMsg{.worker_id = 2, .shard_id = 1, .epoch = 3,
                    .reason = "heartbeat timeout"},
      WorkerDeadMsg{},
      empty_names,
  };

  std::string wire;
  for (const Message& m : messages) {
    const std::vector<std::uint8_t> frame = encode_frame(m);
    EXPECT_EQ(decode_frame(frame), m);
    wire.append(frame.begin(), frame.end());
  }
  EXPECT_EQ(messages.size(), kFrames);
  EXPECT_EQ(wire.size(), kBytes);
  EXPECT_EQ(common::stable_hash(wire), kDigest);
}

// kMaxPayload is inclusive: a payload of exactly that many bytes encodes
// and round-trips, one byte more is refused by the encoder.
TEST(Wire, PayloadCeilingIsInclusive) {
  constexpr std::size_t kFixed = 4 + 4 + 8 + 4;  // ids, ordinal, str length
  CheckpointShardMsg m{.shard_id = 1,
                       .epoch = 2,
                       .ordinal = 3,
                       .checkpoint_json = std::string(kMaxPayload - kFixed,
                                                      'x')};
  const std::vector<std::uint8_t> frame = encode_frame(m);
  EXPECT_EQ(frame.size(), kHeaderSize + kMaxPayload);
  EXPECT_EQ(std::get<CheckpointShardMsg>(decode_frame(frame)), m);
  m.checkpoint_json.push_back('x');
  EXPECT_THROW((void)encode_frame(m), WireError);
}

}  // namespace
}  // namespace impress::net
