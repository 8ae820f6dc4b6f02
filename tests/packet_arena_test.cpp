// Tests for the zero-alloc packet pipeline building blocks: SlotArena
// handle lifecycle (reuse, generation safety, address stability), the
// SoA PacketRing/WireRing queues against a deque reference model, the
// Route::push bounds guard, and equal-time FIFO delivery under the
// port's batched wire drain.

#include <cstdint>
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "hermes/net/packet.hpp"
#include "hermes/net/packet_arena.hpp"
#include "hermes/net/packet_ring.hpp"
#include "hermes/net/port.hpp"
#include "hermes/sim/simulator.hpp"
#include "hermes/sim/slot_arena.hpp"

namespace hermes {
namespace {

using sim::ArenaHandle;
using sim::usec;

// --- SlotArena --------------------------------------------------------------

TEST(SlotArenaTest, AllocStoresAndAccesses) {
  sim::SlotArena<int> arena;
  const auto h = arena.alloc(42);
  EXPECT_TRUE(arena.valid(h));
  EXPECT_EQ(arena[h], 42);
  EXPECT_EQ(arena.live(), 1u);
  arena.free(h);
  EXPECT_EQ(arena.live(), 0u);
}

TEST(SlotArenaTest, FreedSlotIsReusedLifo) {
  sim::SlotArena<int> arena;
  const auto a = arena.alloc(1);
  const auto b = arena.alloc(2);
  (void)arena.alloc(3);
  arena.free(b);
  // LIFO free-list: the next alloc must reuse b's slot (with a new gen).
  const auto d = arena.alloc(4);
  EXPECT_EQ(d.slot(), b.slot());
  EXPECT_NE(d.gen(), b.gen());
  EXPECT_EQ(arena[d], 4);
  EXPECT_EQ(arena[a], 1);
}

TEST(SlotArenaTest, StaleHandleStopsValidatingAfterFree) {
  sim::SlotArena<std::string> arena;
  const auto h = arena.alloc(std::string{"live"});
  EXPECT_TRUE(arena.valid(h));
  arena.free(h);
  EXPECT_FALSE(arena.valid(h));
  EXPECT_EQ(arena.get(h), nullptr);
  // Reusing the slot revives the slot, not the old handle.
  const auto h2 = arena.alloc(std::string{"reused"});
  EXPECT_EQ(h2.slot(), h.slot());
  EXPECT_TRUE(arena.valid(h2));
  EXPECT_FALSE(arena.valid(h));
  EXPECT_EQ(*arena.get(h2), "reused");
}

TEST(SlotArenaTest, NullHandleNeverValidates) {
  sim::SlotArena<int> arena;
  ArenaHandle null;
  EXPECT_FALSE(static_cast<bool>(null));
  EXPECT_FALSE(arena.valid(null));
  EXPECT_EQ(arena.get(null), nullptr);
}

TEST(SlotArenaTest, AddressesStableAcrossGrowth) {
  sim::SlotArena<std::uint64_t> arena;
  const auto first = arena.alloc(0xABCDull);
  std::uint64_t* addr = &arena[first];
  // Force several chunk growths; chunked storage must never relocate.
  constexpr std::uint64_t kAllocs = 4 * sim::SlotArena<std::uint64_t>::kChunkSlots;
  std::vector<ArenaHandle> handles;
  for (std::uint64_t i = 0; i < kAllocs; ++i) handles.push_back(arena.alloc(std::uint64_t{i}));
  EXPECT_EQ(&arena[first], addr);
  EXPECT_EQ(arena[first], 0xABCDull);
  EXPECT_GE(arena.capacity(), kAllocs + 1);
  for (std::uint64_t i = 0; i < handles.size(); ++i) EXPECT_EQ(arena[handles[i]], i);
}

TEST(SlotArenaTest, SlotSequenceIsDeterministic) {
  // Two arenas fed the identical alloc/free sequence hand out identical
  // slot numbers — the property serial-vs-parallel determinism rests on.
  auto run = [] {
    sim::SlotArena<int> arena;
    std::vector<std::uint32_t> slots;
    std::vector<ArenaHandle> live;
    std::uint64_t lcg = 99;
    for (int i = 0; i < 2000; ++i) {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      if (!live.empty() && (lcg >> 33) % 3 == 0) {
        arena.free(live.back());
        live.pop_back();
      } else {
        live.push_back(arena.alloc(static_cast<int>(i)));
        slots.push_back(live.back().slot());
      }
    }
    return slots;
  };
  EXPECT_EQ(run(), run());
}

// --- PacketRing / WireRing --------------------------------------------------

TEST(PacketRingTest, FifoOrderPreservedAcrossGrowth) {
  net::PacketRing ring;
  for (std::uint32_t i = 0; i < 200; ++i) ring.push(ArenaHandle{i, 0}, i * 10);
  EXPECT_EQ(ring.size(), 200u);
  for (std::uint32_t i = 0; i < 200; ++i) {
    EXPECT_EQ(ring.front_handle().slot(), i);
    EXPECT_EQ(ring.front_bytes(), i * 10);
    ring.pop();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(PacketRingTest, MatchesDequeReferenceUnderChurn) {
  // Randomized push/pop interleaving (deterministic LCG) against a
  // std::deque reference: same front, same size, at every step — the
  // wraparound and re-linearizing growth must be invisible.
  net::PacketRing ring;
  std::deque<std::pair<std::uint32_t, std::uint32_t>> ref;
  std::uint64_t lcg = 7;
  std::uint32_t next = 0;
  for (int step = 0; step < 20'000; ++step) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    if (ref.empty() || (lcg >> 33) % 5 < 3) {
      ring.push(ArenaHandle{next, 0}, next * 3);
      ref.emplace_back(next, next * 3);
      ++next;
    } else {
      EXPECT_EQ(ring.front_handle().slot(), ref.front().first);
      EXPECT_EQ(ring.front_bytes(), ref.front().second);
      ring.pop();
      ref.pop_front();
    }
    EXPECT_EQ(ring.size(), ref.size());
  }
}

TEST(WireRingTest, TotalBytesTracksQueuedEntries) {
  net::WireRing wire;
  EXPECT_EQ(wire.total_bytes(), 0u);
  wire.push(ArenaHandle{0, 0}, 1500, usec(1));
  wire.push(ArenaHandle{1, 0}, 64, usec(2));
  wire.push(ArenaHandle{2, 0}, 1500, usec(3));
  EXPECT_EQ(wire.total_bytes(), 3064u);
  EXPECT_EQ(wire.front_due(), usec(1));
  wire.pop();
  EXPECT_EQ(wire.total_bytes(), 1564u);
  wire.pop();
  wire.pop();
  EXPECT_TRUE(wire.empty());
  EXPECT_EQ(wire.total_bytes(), 0u);
}

// --- Route bounds guard -----------------------------------------------------

TEST(RouteGuardTest, PushWithinCapacityWorks) {
  net::Route r;
  for (std::uint8_t i = 0; i < net::kMaxRouteHops; ++i) r.push(i);
  EXPECT_EQ(r.len, net::kMaxRouteHops);
  for (std::uint8_t i = 0; i < net::kMaxRouteHops; ++i) EXPECT_EQ(r.ports[i], i);
}

TEST(RouteGuardDeathTest, PushPastCapacityAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  net::Route r;
  for (std::uint8_t i = 0; i < net::kMaxRouteHops; ++i) r.push(i);
  // The 7th hop used to scribble past the fixed array; now it is a hard
  // error in every build mode, not just a debug assert.
  EXPECT_DEATH(r.push(99), "Route::push past");
}

// --- batched wire delivery --------------------------------------------------

class OrderSink : public net::Device {
 public:
  explicit OrderSink(net::PacketArena& arena, sim::Simulator& simulator)
      : arena_{arena}, simulator_{simulator} {}
  void receive(net::PacketHandle h, int) override {
    ids.push_back(arena_[h].id);
    times.push_back(simulator_.now());
    arena_.free(h);
  }
  std::vector<std::uint64_t> ids;
  std::vector<sim::SimTime> times;

 private:
  net::PacketArena& arena_;
  sim::Simulator& simulator_;
};

TEST(BatchedDeliveryTest, EqualTimeDeliveriesKeepFifoOrder) {
  // A link so fast that serialization rounds to zero: every packet sent
  // at t0 becomes due at exactly t0 + prop_delay. The coalesced drain
  // must deliver all of them in one firing, in send (FIFO) order.
  sim::Simulator simulator{1};
  net::PacketArena arena;
  OrderSink sink{arena, simulator};
  net::PortConfig c;
  c.rate_bps = 1e15;
  c.prop_delay = usec(2);
  net::Port port{simulator, arena, "fast", c, &sink, 0};
  for (std::uint64_t i = 1; i <= 5; ++i) {
    net::Packet p;
    p.id = i;
    p.size = 1500;
    port.send(std::move(p));
  }
  simulator.run();
  ASSERT_EQ(sink.ids.size(), 5u);
  EXPECT_EQ(sink.ids, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
  for (const auto t : sink.times) EXPECT_EQ(t, usec(2));
  EXPECT_EQ(arena.live(), 0u);  // every slot returned after delivery
}

TEST(BatchedDeliveryTest, DistinctDueTimesDeliverSeparately) {
  // Normal-rate link: dues strictly increase, so each packet arrives at
  // its own serialization-spaced instant — batching must not lump them.
  sim::Simulator simulator{1};
  net::PacketArena arena;
  OrderSink sink{arena, simulator};
  net::PortConfig c;
  c.rate_bps = 1e9;  // 12us per 1500B
  c.prop_delay = usec(2);
  net::Port port{simulator, arena, "slow", c, &sink, 0};
  for (std::uint64_t i = 1; i <= 3; ++i) {
    net::Packet p;
    p.id = i;
    p.size = 1500;
    port.send(std::move(p));
  }
  simulator.run();
  ASSERT_EQ(sink.times.size(), 3u);
  EXPECT_EQ(sink.times[0], usec(14));
  EXPECT_EQ(sink.times[1], usec(26));
  EXPECT_EQ(sink.times[2], usec(38));
  EXPECT_EQ(arena.live(), 0u);
}

TEST(BatchedDeliveryTest, DropFreesArenaSlot) {
  // Queue-overflow drops must return their slots: a leaked slot would
  // pin arena growth and break the live() accounting the tests above
  // rely on.
  sim::Simulator simulator{1};
  net::PacketArena arena;
  OrderSink sink{arena, simulator};
  net::PortConfig c;
  c.rate_bps = 1e9;
  c.prop_delay = usec(2);
  c.queue_capacity_bytes = 3'000;
  net::Port port{simulator, arena, "tiny", c, &sink, 0};
  for (std::uint64_t i = 1; i <= 10; ++i) {
    net::Packet p;
    p.id = i;
    p.size = 1500;
    port.send(std::move(p));
  }
  simulator.run();
  EXPECT_GT(port.stats().drops, 0u);
  EXPECT_EQ(sink.ids.size(), 10u - port.stats().drops);
  EXPECT_EQ(arena.live(), 0u);
}

}  // namespace
}  // namespace hermes
