// SocketLink tests over an AF_UNIX socketpair: round trips, large-frame
// partial-write/partial-read reassembly, orderly peer shutdown, and the
// poison-on-malformed-bytes teardown contract.

#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "net/socket.hpp"

namespace impress::net {
namespace {

TEST(Socket, RoundTripsAllTypes) {
  auto [a, b] = make_socket_pair();
  HelloMsg hello{.worker_id = 1, .wire_version = kWireVersion, .slots = 2,
                 .build_tag = "t"};
  HeartbeatMsg hb;
  hb.worker_id = 1;
  hb.tick = 9;
  hb.active_shard = 4;
  hb.busy = 1;
  ASSERT_TRUE(a->send(hello));
  ASSERT_TRUE(a->send(hb));

  ASSERT_TRUE(b->wait_readable(1000));
  std::vector<Message> got;
  while (auto m = b->poll()) got.push_back(std::move(*m));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(std::get<HelloMsg>(got[0]), hello);
  EXPECT_EQ(std::get<HeartbeatMsg>(got[1]), hb);
}

TEST(Socket, LargeFrameSurvivesPartialWritesAndReads) {
  auto [a, b] = make_socket_pair();
  CheckpointShardMsg big;
  big.shard_id = 0;
  big.epoch = 1;
  big.ordinal = 3;
  // Much larger than any socket buffer: forces EAGAIN on the writer and
  // many 4096-byte reads on the receiver.
  big.checkpoint_json.assign(4 * 1024 * 1024, 'j');
  ASSERT_TRUE(a->send(big));
  // Sent while the first frame is still backlogged, so it is appended
  // behind it rather than taking over the empty backlog.
  CheckpointShardMsg second = big;
  second.ordinal = 4;
  second.checkpoint_json.assign(4 * 1024 * 1024, 'k');
  ASSERT_TRUE(a->send(second));

  std::vector<Message> got;
  for (int spin = 0; spin < 200000 && got.size() < 2; ++spin) {
    // Writer flushes its backlog opportunistically on poll() too.
    (void)a->poll();
    if (auto m = b->poll()) got.push_back(std::move(*m));
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(std::get<CheckpointShardMsg>(got[0]), big);
  EXPECT_EQ(std::get<CheckpointShardMsg>(got[1]), second);
}

TEST(Socket, PeerCloseObservedAsClosedLink) {
  auto [a, b] = make_socket_pair();
  a->close();
  EXPECT_TRUE(a->closed());
  // b sees EOF on its next poll and closes itself.
  for (int spin = 0; spin < 100 && !b->closed(); ++spin) (void)b->poll();
  EXPECT_TRUE(b->closed());
  EXPECT_FALSE(b->send(HeartbeatMsg{}));
}

TEST(Socket, MalformedBytesPoisonAndCloseLink) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  SocketLink victim(fds[0]);
  // Raw garbage straight onto the peer fd — not a valid frame header.
  const std::uint8_t junk[16] = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                 0xFF, 0xFF, 1,    2,    3,    4,
                                 5,    6,    7,    8};
  ASSERT_EQ(::write(fds[1], junk, sizeof(junk)),
            static_cast<ssize_t>(sizeof(junk)));
  EXPECT_THROW((void)victim.poll(), WireError);
  EXPECT_TRUE(victim.closed());
  ::close(fds[1]);
}

TEST(Socket, WaitReadableTimesOutWhenIdle) {
  auto [a, b] = make_socket_pair();
  EXPECT_FALSE(b->wait_readable(10));
  a->send(HeartbeatMsg{});
  EXPECT_TRUE(b->wait_readable(1000));
}

TEST(Socket, KindIsSocket) {
  auto [a, b] = make_socket_pair();
  EXPECT_EQ(a->kind(), "socket");
}

}  // namespace
}  // namespace impress::net
