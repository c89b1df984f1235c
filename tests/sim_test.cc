// Tests for the discrete-event engine and the simulated network.
#include <gtest/gtest.h>

#include <vector>

#include "sim/network.h"
#include "sim/simulator.h"

namespace rootless::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&]() { order.push_back(3); });
  sim.Schedule(10, [&]() { order.push_back(1); });
  sim.Schedule(20, [&]() { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, EqualTimesFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(5, [&order, i]() { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.Schedule(10, [&]() {
    times.push_back(sim.now());
    sim.Schedule(5, [&]() { times.push_back(sim.now()); });
  });
  sim.Run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(Simulator, RunUntilLeavesLaterEvents) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(10, [&]() { ++fired; });
  sim.Schedule(100, [&]() { ++fired; });
  sim.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, ScheduleAtAbsolute) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.Schedule(10, [&]() {
    sim.ScheduleAt(25, [&]() { fired_at = sim.now(); });
  });
  sim.Run();
  EXPECT_EQ(fired_at, 25);
}

TEST(Simulator, NegativeDelayThrows) {
  Simulator sim;
  EXPECT_THROW(sim.Schedule(-1, []() {}), std::logic_error);
}

TEST(Network, DeliversAfterLatency) {
  Simulator sim;
  Network net(sim, 1);
  net.set_latency_fn([](NodeId, NodeId) { return SimTime{500}; });

  SimTime delivered_at = -1;
  util::Bytes received;
  const NodeId a = net.AddNode(nullptr);
  const NodeId b = net.AddNode([&](const Datagram& d) {
    delivered_at = sim.now();
    received = d.payload;
  });
  net.Send(a, b, {1, 2, 3});
  sim.Run();
  EXPECT_EQ(delivered_at, 500);
  EXPECT_EQ(received, (util::Bytes{1, 2, 3}));
  EXPECT_EQ(net.stats().datagrams_sent, 1u);
  EXPECT_EQ(net.stats().bytes_sent, 3u);
}

TEST(Network, DefaultLatencyIsTwentyMilliseconds) {
  // With no latency function installed, every hop takes 20 ms.
  Simulator sim;
  Network net(sim, 1);
  SimTime delivered_at = -1;
  const NodeId a = net.AddNode(nullptr);
  const NodeId b =
      net.AddNode([&](const Datagram&) { delivered_at = sim.now(); });
  net.Send(a, b, {4});
  sim.Run();
  EXPECT_EQ(delivered_at, 20 * kMillisecond);
}

TEST(Network, SourceAndDestinationAreReported) {
  Simulator sim;
  Network net(sim, 1);
  NodeId got_src = 999;
  const NodeId a = net.AddNode(nullptr);
  const NodeId b =
      net.AddNode([&](const Datagram& d) { got_src = d.src; });
  net.Send(a, b, {0});
  sim.Run();
  EXPECT_EQ(got_src, a);
}

TEST(Network, LossDropsDatagrams) {
  Simulator sim;
  Network net(sim, 42);
  net.set_loss_rate(0.5);
  int delivered = 0;
  const NodeId a = net.AddNode(nullptr);
  const NodeId b = net.AddNode([&](const Datagram&) { ++delivered; });
  for (int i = 0; i < 1000; ++i) net.Send(a, b, {0});
  sim.Run();
  EXPECT_GT(delivered, 400);
  EXPECT_LT(delivered, 600);
  EXPECT_EQ(net.stats().datagrams_dropped, 1000u - delivered);
}

TEST(Network, ZeroLossDeliversAll) {
  Simulator sim;
  Network net(sim, 42);
  int delivered = 0;
  const NodeId a = net.AddNode(nullptr);
  const NodeId b = net.AddNode([&](const Datagram&) { ++delivered; });
  for (int i = 0; i < 100; ++i) net.Send(a, b, {0});
  sim.Run();
  EXPECT_EQ(delivered, 100);
}

TEST(Network, SetHandlerRewires) {
  Simulator sim;
  Network net(sim, 1);
  int first = 0, second = 0;
  const NodeId a = net.AddNode(nullptr);
  const NodeId b = net.AddNode([&](const Datagram&) { ++first; });
  net.SetHandler(b, [&](const Datagram&) { ++second; });
  net.Send(a, b, {0});
  sim.Run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

}  // namespace
}  // namespace rootless::sim
