// Unit tests of the discrete-event simulation core (src/sim): deadline-
// queue ordering, per-rank timelines, the fluid contention simulation
// (closed forms, and a seeded corpus diffed against the full-sweep oracle
// in oracle.hpp) and the directed traffic decompositions it consumes.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "oracle.hpp"
#include "partition/metrics.hpp"
#include "sim/executor.hpp"
#include "sim/event_queue.hpp"
#include "sim/message_sim.hpp"
#include "sim/timeline.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ssamr::sim {
namespace {

// ---------------------------------------------------------------------------
// RetimableEventQueue: the indexed decrease-key heap under the fluid
// simulator.  Differential-tested against a brute-force reference (linear
// argmin over (time, sequence)) so the directional single-sift moves and
// the position map are exercised under random churn.

TEST(RetimableEventQueue, PopsInTimeOrderAndRetimesBothWays) {
  RetimableEventQueue q(4);
  q.schedule(Seconds{3.0}, 0);
  q.schedule(Seconds{1.0}, 1);
  q.schedule(Seconds{2.0}, 2);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_DOUBLE_EQ(q.next_time().value(), 1.0);
  q.schedule(Seconds{0.5}, 0);  // decrease-key to the front
  EXPECT_EQ(q.pop(), 0u);
  q.schedule(Seconds{5.0}, 1);  // increase-key past the other entry
  EXPECT_EQ(q.pop(), 2u);
  EXPECT_EQ(q.pop(), 1u);
  EXPECT_TRUE(q.empty());
}

TEST(RetimableEventQueue, EqualTimesPopInLatestScheduleOrder) {
  RetimableEventQueue q(3);
  q.schedule(Seconds{1.0}, 2);
  q.schedule(Seconds{1.0}, 0);
  q.schedule(Seconds{1.0}, 1);
  q.schedule(Seconds{1.0}, 2);  // re-stamp: now the freshest entry
  EXPECT_EQ(q.pop(), 0u);
  EXPECT_EQ(q.pop(), 1u);
  EXPECT_EQ(q.pop(), 2u);
}

TEST(RetimableEventQueue, CancelDropsOnlyTheTarget) {
  RetimableEventQueue q(3);
  q.schedule(Seconds{1.0}, 0);
  q.schedule(Seconds{2.0}, 1);
  q.schedule(Seconds{3.0}, 2);
  q.cancel(1);
  q.cancel(1);  // absent: no-op
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop(), 0u);
  EXPECT_EQ(q.pop(), 2u);
  EXPECT_TRUE(q.empty());
}

TEST(RetimableEventQueue, MatchesBruteForceReferenceUnderChurn) {
  constexpr std::size_t kIds = 181;
  constexpr int kOps = 20000;
  RetimableEventQueue q(kIds);
  // Reference: per-id (time, stamp), argmin by (time, stamp) — the
  // documented pop order.  Stamps advance on every schedule call exactly
  // like the queue's internal sequence.
  struct Ref {
    bool live = false;
    double time = 0;
    std::uint64_t stamp = 0;
  };
  std::vector<Ref> ref(kIds);
  std::uint64_t next_stamp = 0;
  std::size_t live = 0;
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;  // fixed-seed xorshift
  const auto rand_u32 = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return static_cast<std::uint32_t>(rng >> 32);
  };
  for (int op = 0; op < kOps; ++op) {
    const std::uint32_t r = rand_u32();
    const auto id = static_cast<std::size_t>(rand_u32() % kIds);
    if (r % 100 < 55) {
      // Times from a small lattice so equal-time ties actually occur.
      const double time = 0.125 * static_cast<double>(rand_u32() % 64);
      q.schedule(Seconds{time}, id);
      if (!ref[id].live) ++live;
      ref[id] = Ref{true, time, next_stamp++};
    } else if (r % 100 < 70) {
      q.cancel(id);
      if (ref[id].live) --live;
      ref[id].live = false;
    } else if (live > 0) {
      std::size_t best = kIds;
      for (std::size_t i = 0; i < kIds; ++i) {
        if (!ref[i].live) continue;
        if (best == kIds || ref[i].time < ref[best].time ||
            (ref[i].time == ref[best].time && ref[i].stamp < ref[best].stamp))
          best = i;
      }
      ASSERT_DOUBLE_EQ(q.next_time().value(), ref[best].time);
      ASSERT_EQ(q.pop(), best);
      ref[best].live = false;
      --live;
    }
    ASSERT_EQ(q.size(), live);
    ASSERT_EQ(q.empty(), live == 0);
  }
  // Drain: full agreement to the end.
  while (live > 0) {
    std::size_t best = kIds;
    for (std::size_t i = 0; i < kIds; ++i) {
      if (!ref[i].live) continue;
      if (best == kIds || ref[i].time < ref[best].time ||
          (ref[i].time == ref[best].time && ref[i].stamp < ref[best].stamp))
        best = i;
    }
    ASSERT_EQ(q.pop(), best);
    ref[best].live = false;
    --live;
  }
  EXPECT_TRUE(q.empty());
}

TEST(RetimableEventQueue, ResetReusesAcrossRuns) {
  RetimableEventQueue q;
  for (int run = 0; run < 3; ++run) {
    q.reset(8);
    EXPECT_TRUE(q.empty());
    for (std::size_t id = 0; id < 8; ++id)
      q.schedule(Seconds{static_cast<double>(7 - id)}, id);
    for (std::size_t id = 8; id-- > 0;) EXPECT_EQ(q.pop(), id);
  }
}

TEST(Timeline, BucketsSpansByKind) {
  RankTimeline tl(0, SpanLog::kKeep);
  tl.advance(Seconds{1.0}, SpanKind::kCompute, 0);
  tl.advance(Seconds{1.5}, SpanKind::kComm, 0);
  tl.advance(Seconds{2.0}, SpanKind::kIdle, 0);
  tl.advance(Seconds{2.25}, SpanKind::kRegrid, 1);
  tl.advance(Seconds{2.75}, SpanKind::kMigrate);
  EXPECT_DOUBLE_EQ(tl.usage().busy_s.value(), 1.25);  // compute + regrid
  EXPECT_DOUBLE_EQ(tl.usage().comm_s.value(), 1.0);   // comm + migrate
  EXPECT_DOUBLE_EQ(tl.usage().idle_s.value(), 0.5);
  EXPECT_DOUBLE_EQ(tl.now().value(), 2.75);
  ASSERT_EQ(tl.spans().size(), 5u);
  EXPECT_EQ(tl.spans()[0].kind, SpanKind::kCompute);
  EXPECT_EQ(tl.spans()[0].iteration, 0);
  // Spans are contiguous: each begins where the previous ended.
  for (std::size_t i = 1; i < tl.spans().size(); ++i)
    EXPECT_DOUBLE_EQ(tl.spans()[i].t0.value(), tl.spans()[i - 1].t1.value());
}

TEST(Timeline, ZeroLengthAdvanceRecordsNothing) {
  RankTimeline tl(2, SpanLog::kKeep);
  tl.advance(Seconds{1.0}, SpanKind::kCompute);
  tl.advance(Seconds{1.0}, SpanKind::kIdle);
  EXPECT_EQ(tl.spans().size(), 1u);
  EXPECT_THROW(tl.advance(Seconds{0.5}, SpanKind::kIdle), Error);
  EXPECT_THROW(tl.skip_to(Seconds{0.5}), Error);
}

TEST(LaneSet, SerialStagesMoveEveryRankLaneTogether) {
  LaneSet lanes(2, SpanLog::kKeep);
  lanes.serial_sense(Seconds{1.0}, Seconds{0.5}, 0);
  lanes.serial_regrid(Seconds{1.5}, Seconds{0.25}, 0);
  lanes.land_migration(Seconds{1.5}, Seconds{0.5});  // 1.5 + (0.25 + 0.5)
  for (std::size_t k = 0; k < lanes.nranks(); ++k) {
    const RankUsage& u = lanes.rank(k).usage();
    EXPECT_DOUBLE_EQ(lanes.rank(k).now().value(), 2.25);
    EXPECT_DOUBLE_EQ(u.idle_s.value(), 1.5);   // waiting out the sweep
    EXPECT_DOUBLE_EQ(u.busy_s.value(), 0.25);  // regrid
    EXPECT_DOUBLE_EQ(u.comm_s.value(), 0.5);   // migration
  }
  EXPECT_DOUBLE_EQ(lanes.monitor().usage().busy_s.value(), 0.5);
  lanes.monitor().skip_to(Seconds{9.0});  // the monitor lane is no rank
  EXPECT_DOUBLE_EQ(lanes.horizon().value(), 2.25);
}

TEST(LaneSet, FinishIdlesRanksToTheHorizonWithoutRewinding) {
  LaneSet lanes(2, SpanLog::kKeep);
  lanes.rank(0).advance(Seconds{2.0}, SpanKind::kCompute, 0);
  RunTrace trace;
  lanes.finish(trace, Seconds{1.0});  // a driver clock behind the lanes
  ASSERT_EQ(trace.rank_usage.size(), 2u);
  EXPECT_DOUBLE_EQ(trace.rank_usage[0].busy_s.value(), 2.0);
  EXPECT_DOUBLE_EQ(trace.rank_usage[1].idle_s.value(), 2.0);
  EXPECT_EQ(trace.spans.size(), 2u);
}

std::uint64_t bits(Seconds s) {
  return std::bit_cast<std::uint64_t>(s.value());
}

/// True when two lanes agree bit for bit on clock and usage.
bool same_clock(const RankTimeline& a, const RankTimeline& b) {
  return bits(a.now()) == bits(b.now()) &&
         bits(a.usage().busy_s) == bits(b.usage().busy_s) &&
         bits(a.usage().comm_s) == bits(b.usage().comm_s) &&
         bits(a.usage().idle_s) == bits(b.usage().idle_s);
}

TEST(LaneSet, DroppingSpansNeverMovesTheVirtualClock) {
  // One seeded call sequence on a set that keeps spans and on one that
  // drops them: every clock, horizon and usage total must agree bit for
  // bit after every call, and only the keeping set may hold spans.
  constexpr int kRanks = 5;
  constexpr SpanKind kKinds[] = {SpanKind::kCompute, SpanKind::kComm,
                                 SpanKind::kSense,   SpanKind::kRegrid,
                                 SpanKind::kMigrate, SpanKind::kIdle};
  LaneSet keep(kRanks, SpanLog::kKeep);
  LaneSet drop(kRanks, SpanLog::kDrop);
  Rng rng(0x5ba115);
  int calls = 0;
  int zero_length_advances = 0;
  int op_count[10] = {};
  for (int step = 0; step < 240; ++step) {
    const auto op = static_cast<int>(rng.uniform_int(0, 9));
    ++op_count[op];
    const int iter = step / 10;
    // One interval in four is empty: zero-length calls change nothing.
    const Seconds dt{rng.uniform() < 0.25 ? 0.0 : rng.uniform(0.0, 0.5)};
    if (op < 6) {
      if (dt == Seconds{0}) ++zero_length_advances;
      const auto k = static_cast<std::size_t>(rng.uniform_int(0, kRanks - 1));
      const SpanKind kind = kKinds[op];
      keep.rank(k).advance(keep.rank(k).now() + dt, kind, iter);
      drop.rank(k).advance(drop.rank(k).now() + dt, kind, iter);
      ++calls;
    } else if (op == 6) {
      keep.monitor().skip_to(keep.monitor().now() + dt);
      drop.monitor().skip_to(drop.monitor().now() + dt);
      ++calls;
    } else if (op == 7) {
      keep.monitor().advance(keep.monitor().now() + dt, SpanKind::kSense, iter);
      drop.monitor().advance(drop.monitor().now() + dt, SpanKind::kSense, iter);
      ++calls;
    } else if (op == 8) {
      const Seconds t = std::max(keep.horizon(), keep.monitor().now());
      keep.serial_sense(t, dt, iter);
      drop.serial_sense(t, dt, iter);
      ++calls;
    } else {
      const Seconds t = keep.horizon();
      const Seconds migration{rng.uniform(0.0, 0.25)};
      keep.serial_regrid(t, dt, iter);
      drop.serial_regrid(t, dt, iter);
      keep.land_migration(t, migration);
      drop.land_migration(t, migration);
      calls += 2;
    }
    ASSERT_EQ(bits(keep.horizon()), bits(drop.horizon())) << "step " << step;
    ASSERT_TRUE(same_clock(keep.monitor(), drop.monitor())) << "step " << step;
    ASSERT_TRUE(drop.monitor().spans().empty());
    for (std::size_t k = 0; k < keep.nranks(); ++k) {
      ASSERT_TRUE(same_clock(keep.rank(k), drop.rank(k)))
          << "rank " << k << " step " << step;
      ASSERT_TRUE(drop.rank(k).spans().empty());
    }
  }
  EXPECT_GE(calls, 200);
  EXPECT_GT(zero_length_advances, 0);
  for (const int n : op_count) EXPECT_GT(n, 0);

  // The driver's clock lags the horizon: finish idles no lane backwards.
  const Seconds t_end = keep.horizon() - Seconds{0.25};
  RunTrace kept;
  RunTrace dropped;
  keep.finish(kept, t_end);
  drop.finish(dropped, t_end);
  ASSERT_EQ(kept.rank_usage.size(), static_cast<std::size_t>(kRanks));
  ASSERT_EQ(dropped.rank_usage.size(), kept.rank_usage.size());
  for (std::size_t k = 0; k < kept.rank_usage.size(); ++k) {
    EXPECT_EQ(bits(kept.rank_usage[k].busy_s),
              bits(dropped.rank_usage[k].busy_s));
    EXPECT_EQ(bits(kept.rank_usage[k].comm_s),
              bits(dropped.rank_usage[k].comm_s));
    EXPECT_EQ(bits(kept.rank_usage[k].idle_s),
              bits(dropped.rank_usage[k].idle_s));
  }
  EXPECT_FALSE(kept.spans.empty());
  EXPECT_TRUE(dropped.spans.empty());
}

TEST(MessageSim, SingleMessageMatchesClosedForm) {
  NetworkModel net;
  const std::vector<MbitsPerSec> bw = {MbitsPerSec{100.0},
                                       MbitsPerSec{100.0}};
  std::vector<Transfer> ts = {
      Transfer{0, 1, Bytes{1 << 20}, Seconds{2.0}, Seconds{0}}};
  simulate_transfers(ts, bw, net);
  // Alone on the wire, the fluid model reduces to transfer_time.
  EXPECT_NEAR(ts[0].finish_time.value(),
              2.0 + net.transfer_time(Bytes{1 << 20}, MbitsPerSec{100},
                                      MbitsPerSec{100})
                        .value(),
              1e-12);
}

TEST(MessageSim, ZeroByteTransferFinishesAtPostTime) {
  NetworkModel net;
  const std::vector<MbitsPerSec> bw = {MbitsPerSec{100.0},
                                       MbitsPerSec{100.0}};
  std::vector<Transfer> ts = {
      Transfer{0, 1, Bytes{0}, Seconds{3.5}, Seconds{0}}};
  simulate_transfers(ts, bw, net);
  EXPECT_DOUBLE_EQ(ts[0].finish_time.value(), 3.5);
}

TEST(MessageSim, ConcurrentSendsShareTheSourceNic) {
  NetworkModel net;
  net.latency_s = Seconds{0};
  net.efficiency = Fraction{1.0};
  const std::vector<MbitsPerSec> bw(4, MbitsPerSec{100.0});
  const Bytes bytes{1250000};  // 10^7 bits: 0.1 s alone
  // Rank 0 fans out to ranks 1 and 2 simultaneously: both halve rank 0's
  // bandwidth for their whole lifetime and finish together at 0.2 s.
  std::vector<Transfer> ts = {Transfer{0, 1, bytes, Seconds{0}, Seconds{0}},
                              Transfer{0, 2, bytes, Seconds{0}, Seconds{0}}};
  simulate_transfers(ts, bw, net);
  EXPECT_NEAR(ts[0].finish_time.value(), 0.2, 1e-9);
  EXPECT_NEAR(ts[1].finish_time.value(), 0.2, 1e-9);

  // Disjoint endpoint pairs do not contend: 0→1 and 2→3 each run at
  // full speed.
  std::vector<Transfer> free = {Transfer{0, 1, bytes, Seconds{0}, Seconds{0}},
                                Transfer{2, 3, bytes, Seconds{0}, Seconds{0}}};
  simulate_transfers(free, bw, net);
  EXPECT_NEAR(free[0].finish_time.value(), 0.1, 1e-9);
  EXPECT_NEAR(free[1].finish_time.value(), 0.1, 1e-9);
}

TEST(MessageSim, NicsAreFullDuplex) {
  NetworkModel net;
  net.latency_s = Seconds{0};
  net.efficiency = Fraction{1.0};
  const std::vector<MbitsPerSec> bw(2, MbitsPerSec{100.0});
  const Bytes bytes{1250000};  // 0.1 s alone
  // A symmetric exchange: 0→1 and 1→0 at once.  Each node sends on its tx
  // lane and receives on its rx lane, so neither message slows the other —
  // both finish at the single-message time, not double it.
  std::vector<Transfer> ts = {Transfer{0, 1, bytes, Seconds{0}, Seconds{0}},
                              Transfer{1, 0, bytes, Seconds{0}, Seconds{0}}};
  simulate_transfers(ts, bw, net);
  EXPECT_NEAR(ts[0].finish_time.value(), 0.1, 1e-9);
  EXPECT_NEAR(ts[1].finish_time.value(), 0.1, 1e-9);
}

TEST(MessageSim, StaggeredPostsReleaseBandwidth) {
  NetworkModel net;
  net.latency_s = Seconds{0};
  net.efficiency = Fraction{1.0};
  const std::vector<MbitsPerSec> bw(3, MbitsPerSec{100.0});
  const Bytes bytes{1250000};  // 0.1 s alone
  // Second transfer posts when the first is half done: they share for
  // 0.05 s + 0.05 s (first finishes at 0.15 having moved 0.05+0.05+0.05),
  // then the second runs alone.
  std::vector<Transfer> ts = {
      Transfer{0, 1, bytes, Seconds{0}, Seconds{0}},
      Transfer{0, 2, bytes, Seconds{0.05}, Seconds{0}}};
  simulate_transfers(ts, bw, net);
  EXPECT_GT(ts[0].finish_time, Seconds{0.1});  // slowed by the newcomer
  EXPECT_LT(ts[0].finish_time, Seconds{0.2});  // but not halved for life
  EXPECT_GT(ts[1].finish_time, ts[0].finish_time);
  // Total bits moved by rank 0 = 2 × 10^7 at ≤ 10^8 bit/s: at least 0.2 s
  // of wall-clock from the first post.
  EXPECT_GE(ts[1].finish_time, Seconds{0.2 - 1e-9});
}

TEST(MessageSim, LatencyDelaysNetworkEntryOncePerMessage) {
  NetworkModel net;
  net.latency_s = Seconds{0.01};
  net.efficiency = Fraction{1.0};
  const std::vector<MbitsPerSec> bw(2, MbitsPerSec{100.0});
  const Bytes bytes{1250000};
  std::vector<Transfer> ts = {Transfer{0, 1, bytes, Seconds{0}, Seconds{0}}};
  simulate_transfers(ts, bw, net);
  EXPECT_NEAR(ts[0].finish_time.value(), 0.01 + 0.1, 1e-9);
}

/// A deterministic 200-transfer churn mix: fan-outs, fan-ins, self and
/// zero-byte messages, staggered posts — enough churn that the active set
/// turns over many times.
std::vector<Transfer> churn_mix(int nodes) {
  std::vector<Transfer> ts;
  std::uint64_t s = 12345;
  const auto next = [&s] {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return s >> 33;
  };
  for (int i = 0; i < 200; ++i) {
    Transfer t;
    t.src = static_cast<rank_t>(next() % nodes);
    t.dst = static_cast<rank_t>(next() % nodes);
    t.bytes = (next() % 5 == 0)
                  ? Bytes{0}
                  : Bytes{static_cast<std::int64_t>(1 + next() % 2000000)};
    t.post_time = Seconds{static_cast<real_t>(next() % 1000) * 0.01};
    ts.push_back(t);
  }
  return ts;
}

TEST(MessageSimIndexed, AgreesWithExactSimulatorToRounding) {
  // Same fluid model, different FP grouping: the indexed simulator settles
  // residuals lazily per lane where the oracle sweeps all active
  // transfers, so finish times agree to rounding but not bit-for-bit.
  NetworkModel net;
  const std::vector<MbitsPerSec> bw = {MbitsPerSec{100.0}, MbitsPerSec{80.0},
                                       MbitsPerSec{120.0}, MbitsPerSec{60.0},
                                       MbitsPerSec{100.0}, MbitsPerSec{90.0}};
  std::vector<Transfer> exact = churn_mix(6);
  std::vector<Transfer> indexed = exact;
  const std::size_t exact_events =
      oracle::simulate_transfers(exact, bw, net);
  const std::size_t indexed_events = simulate_transfers(indexed, bw, net);
  EXPECT_EQ(exact_events, indexed_events);
  for (std::size_t i = 0; i < exact.size(); ++i)
    EXPECT_NEAR(indexed[i].finish_time.value(), exact[i].finish_time.value(),
                1e-6)
        << "transfer " << i;
}

TEST(MessageSimIndexed, IsDeterministic) {
  NetworkModel net;
  const std::vector<MbitsPerSec> bw(6, MbitsPerSec{100.0});
  std::vector<Transfer> a = churn_mix(6);
  std::vector<Transfer> b = a;
  EXPECT_EQ(simulate_transfers(a, bw, net), simulate_transfers(b, bw, net));
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i].finish_time, b[i].finish_time) << "transfer " << i;
}

TEST(MessageSimIndexed, CountsTwoEventsPerNetworkTransfer) {
  // One admission + one completion per transfer that actually enters the
  // network; zero-byte and self transfers are free and uncounted.  The
  // simulator and the oracle must agree on the count.
  NetworkModel net;
  const std::vector<MbitsPerSec> bw(3, MbitsPerSec{100.0});
  std::vector<Transfer> ts = {
      Transfer{0, 1, Bytes{1 << 20}, Seconds{0}, Seconds{0}},
      Transfer{1, 2, Bytes{1 << 18}, Seconds{0.1}, Seconds{0}},
      Transfer{0, 0, Bytes{1 << 20}, Seconds{0}, Seconds{0}},  // self
      Transfer{2, 1, Bytes{0}, Seconds{0}, Seconds{0}}};       // empty
  std::vector<Transfer> ts2 = ts;
  EXPECT_EQ(oracle::simulate_transfers(ts, bw, net), 4u);
  EXPECT_EQ(simulate_transfers(ts2, bw, net), 4u);
}

TEST(MessageSimIndexed, FanOutContentionMatchesClosedForm) {
  // Two concurrent sends from one source: each sees half the tx lane, so
  // both finish in twice the solo time (plus latency).  The oracle must
  // meet the closed form the simulator meets in
  // ConcurrentSendsShareTheSourceNic, or agreeing with it proves nothing.
  NetworkModel net;
  net.latency_s = Seconds{0};
  net.efficiency = Fraction{1.0};
  const std::vector<MbitsPerSec> bw(3, MbitsPerSec{100.0});
  const Bytes bytes{1250000};  // 0.1 s solo at 100 Mbit/s
  std::vector<Transfer> ts = {Transfer{0, 1, bytes, Seconds{0}, Seconds{0}},
                              Transfer{0, 2, bytes, Seconds{0}, Seconds{0}}};
  oracle::simulate_transfers(ts, bw, net);
  EXPECT_NEAR(ts[0].finish_time.value(), 0.2, 1e-9);
  EXPECT_NEAR(ts[1].finish_time.value(), 0.2, 1e-9);
}

/// Transfers whose residual, after a slowdown, drains in less than half an
/// ulp of the virtual clock.  Past 1024 s the re-armed deadline
/// `now + remaining / rate` rounds back to `now`; the simulator must
/// finish such a transfer instead of re-arming it forever (CMake gives
/// this binary a hard timeout, so a regression fails, not hangs).
std::vector<Transfer> late_slowdown_mix(real_t t0) {
  return {Transfer{0, 1, Bytes{1000}, Seconds{t0}, Seconds{0}},
          Transfer{0, 2, Bytes{1007}, Seconds{t0}, Seconds{0}},
          Transfer{3, 2, Bytes{2003}, Seconds{t0 + 0.001}, Seconds{0}}};
}

TEST(MessageSimIndexed, SubUlpResidualFinishesLateInVirtualTime) {
  NetworkModel net;
  const std::vector<MbitsPerSec> bw(4, MbitsPerSec{100.0});
  for (real_t t0 : {512.0, 2048.0, 65536.0}) {
    std::vector<Transfer> exact = late_slowdown_mix(t0);
    std::vector<Transfer> indexed = exact;
    EXPECT_EQ(oracle::simulate_transfers(exact, bw, net),
              simulate_transfers(indexed, bw, net));
    for (std::size_t i = 0; i < exact.size(); ++i)
      EXPECT_EQ(indexed[i].finish_time, exact[i].finish_time)
          << "t0 " << t0 << " transfer " << i;
  }
}

TEST(MessageSim, RejectsDegenerateNetworkParameters) {
  // Each of these would hang the simulator: a zero, negative or NaN
  // efficiency gives contended transfers a rate that never drains them,
  // and a NaN or infinite latency an entry time the clock never reaches.
  const real_t nan = std::numeric_limits<real_t>::quiet_NaN();
  const real_t inf = std::numeric_limits<real_t>::infinity();
  const std::vector<MbitsPerSec> bw(3, MbitsPerSec{100.0});
  const std::vector<Transfer> fan_out = {
      Transfer{0, 1, Bytes{1000}, Seconds{0}, Seconds{0}},
      Transfer{0, 2, Bytes{1000}, Seconds{0}, Seconds{0}}};
  for (const real_t eff : {0.0, -0.5, 1.5, nan, inf}) {
    NetworkModel net;
    net.efficiency = Fraction{eff};
    std::vector<Transfer> ts = fan_out;
    EXPECT_THROW(simulate_transfers(ts, bw, net), Error) << eff;
  }
  for (const real_t latency : {-1e-4, nan, inf}) {
    NetworkModel net;
    net.latency_s = Seconds{latency};
    std::vector<Transfer> ts = fan_out;
    EXPECT_THROW(simulate_transfers(ts, bw, net), Error) << latency;
  }
}

TEST(MessageSim, RejectsNonFiniteOrNegativePostTimes) {
  // A NaN or infinite post time is never admitted, and a negative one
  // precedes the clock origin the simulation starts from.
  NetworkModel net;
  net.latency_s = Seconds{0};
  net.efficiency = Fraction{1.0};
  const std::vector<MbitsPerSec> bw(2, MbitsPerSec{100.0});
  for (const real_t post : {-1.0, std::numeric_limits<real_t>::quiet_NaN(),
                            std::numeric_limits<real_t>::infinity()}) {
    std::vector<Transfer> ts = {
        Transfer{0, 1, Bytes{1250000}, Seconds{post}, Seconds{0}}};
    EXPECT_THROW(simulate_transfers(ts, bw, net), Error) << post;
  }
}

/// One scenario of the oracle corpus.
struct NetCase {
  NetworkModel net;
  std::vector<MbitsPerSec> bw;
  std::vector<Transfer> transfers;
};

/// A seeded corpus of 240 transfer mixes: 2–64 endpoints and 1–400
/// transfers, zero-byte and self transfers, post times on a 5 ms lattice
/// (so many tie exactly), clock offsets from 0 to 2^17 s (past 1024 s a
/// residual can drain in under half an ulp), endpoint bandwidths below the
/// NetworkModel::kMinBandwidthMbps floor, and latency 0 or the default.
std::vector<NetCase> oracle_corpus() {
  constexpr int kCases = 240;
  std::vector<NetCase> corpus(kCases);
  Rng rng(0xf1e1dULL);
  for (int c = 0; c < kCases; ++c) {
    NetCase& nc = corpus[static_cast<std::size_t>(c)];
    if (rng.uniform_int(0, 1) == 0) nc.net.latency_s = Seconds{0};
    if (rng.uniform_int(0, 2) == 0) nc.net.efficiency = Fraction{1.0};
    // Even cases sit on 0 or a power of two up to 2^17 s, odd ones anywhere
    // in [0, 2^17).
    const real_t t0 = c % 2 == 1    ? rng.uniform(0, 131072.0)
                      : c % 36 == 0 ? 0.0
                                    : std::ldexp(1.0, (c / 2) % 18);
    const auto nodes = rng.uniform_int(2, 64);
    for (std::int64_t k = 0; k < nodes; ++k)
      nc.bw.push_back(MbitsPerSec{rng.uniform_int(0, 7) == 0
                                      ? rng.uniform(0, 0.1)
                                      : rng.uniform(10, 1000)});
    const auto count = rng.uniform_int(1, 400);
    for (std::int64_t i = 0; i < count; ++i) {
      Transfer t;
      t.src = static_cast<rank_t>(rng.uniform_int(0, nodes - 1));
      t.dst = rng.uniform_int(0, 9) == 0
                  ? t.src
                  : static_cast<rank_t>(rng.uniform_int(0, nodes - 1));
      t.bytes = rng.uniform_int(0, 7) == 0
                    ? Bytes{0}
                    : Bytes{rng.uniform_int(1, std::int64_t{1} << 21)};
      t.post_time = Seconds{t0 + 0.005 * static_cast<real_t>(
                                           rng.uniform_int(0, 40))};
      nc.transfers.push_back(t);
    }
  }
  return corpus;
}

TEST(MessageSimIndexed, MatchesOracleAcrossSeededCorpus) {
  real_t max_delta = 0;
  const std::vector<NetCase> corpus = oracle_corpus();
  for (std::size_t c = 0; c < corpus.size(); ++c) {
    const NetCase& nc = corpus[c];
    std::vector<Transfer> sim = nc.transfers;
    std::vector<Transfer> ref = nc.transfers;
    ASSERT_EQ(simulate_transfers(sim, nc.bw, nc.net),
              oracle::simulate_transfers(ref, nc.bw, nc.net))
        << "case " << c;
    for (std::size_t i = 0; i < sim.size(); ++i) {
      const real_t delta = std::abs(sim[i].finish_time.value() -
                                    ref[i].finish_time.value());
      max_delta = std::max(max_delta, delta);
      ASSERT_LE(delta, 1e-8) << "case " << c << " transfer " << i;
    }
  }
  std::ostringstream worst;
  worst << max_delta;
  RecordProperty("max_abs_delta_s", worst.str());
}

TEST(MessageSimIndexed, ReusedWorkspaceMatchesFreshAcrossCorpus) {
  // SimWorkspace re-initializes every buffer per call, so reuse must never
  // change a result.  One workspace carries the whole corpus, through
  // endpoint and transfer counts that grow and shrink from case to case.
  SimWorkspace shared;
  const std::vector<NetCase> corpus = oracle_corpus();
  for (std::size_t c = 0; c < corpus.size(); ++c) {
    const NetCase& nc = corpus[c];
    std::vector<Transfer> reused = nc.transfers;
    std::vector<Transfer> fresh = nc.transfers;
    ASSERT_EQ(simulate_transfers(reused, nc.bw, nc.net, shared),
              simulate_transfers(fresh, nc.bw, nc.net))
        << "case " << c;
    for (std::size_t i = 0; i < reused.size(); ++i)
      ASSERT_EQ(reused[i].finish_time, fresh[i].finish_time)
          << "case " << c << " transfer " << i;
  }
}

PartitionResult two_adjacent_boxes() {
  PartitionResult r;
  r.assignments.push_back(
      {Box::from_extent(IntVec(0, 0, 0), IntVec(4, 4, 4), 0), 0});
  r.assignments.push_back(
      {Box::from_extent(IntVec(4, 0, 0), IntVec(4, 4, 4), 0), 1});
  r.assigned_work = {64, 64};
  r.target_work = {64, 64};
  return r;
}

/// Bytes a rank sends plus receives: the sum of its incident flows.
std::int64_t incident_bytes(const std::vector<RankFlow>& flows, rank_t rank) {
  std::int64_t total = 0;
  for (const RankFlow& f : flows)
    if (f.src == rank || f.dst == rank) total += f.bytes;
  return total;
}

TEST(PairwiseComm, FlowsMatchAggregatePerRank) {
  PartitionResult r = two_adjacent_boxes();
  // A third rank far from both exchanges nothing.
  r.assignments.push_back(
      {Box::from_extent(IntVec(32, 0, 0), IntVec(4, 4, 4), 0), 2});
  r.assigned_work.push_back(64);
  r.target_work.push_back(64);
  for (const coord_t ghost : {1, 2}) {
    const auto flows = pairwise_comm_bytes(r, ghost, /*ncomp=*/2);
    ASSERT_EQ(flows.size(), 2u);  // 0→1 and 1→0
    // Each way: one 4x4 face, `ghost` cells deep, 2 components.
    const std::int64_t one_way =
        16 * ghost * 2 * static_cast<std::int64_t>(sizeof(real_t));
    EXPECT_EQ(incident_bytes(flows, 0), 2 * one_way) << "ghost " << ghost;
    EXPECT_EQ(incident_bytes(flows, 1), 2 * one_way) << "ghost " << ghost;
    EXPECT_EQ(incident_bytes(flows, 2), 0) << "ghost " << ghost;
  }
}

TEST(ExecutorGhostFlows, CacheFollowsEveryChangeOfPartition) {
  // A stale entry would keep pricing an earlier partition's ghost traffic.
  Cluster cluster = Cluster::homogeneous(2);
  const ExecutorConfig cfg;
  const VirtualExecutor exec(cluster, cfg);
  const PartitionResult a = two_adjacent_boxes();
  PartitionResult b = a;
  b.assignments[1].owner = 0;  // rank 0 owns both boxes: no traffic
  PartitionResult c = a;
  c.assigned_work[0] += 1;  // same boxes and owners, different bits
  for (const PartitionResult& r : {a, a, b, a, c, a})
    EXPECT_EQ(exec.ghost_flows(r),
              pairwise_comm_bytes(r, cfg.ghost, cfg.ncomp));
  EXPECT_TRUE(exec.ghost_flows(b).empty());
}

TEST(MigrationFlows, MatchAggregatePerRank) {
  Cluster cluster = Cluster::homogeneous(2);
  const ExecutorConfig cfg;
  VirtualExecutor exec(cluster, cfg);
  const PartitionResult prev = two_adjacent_boxes();
  PartitionResult next = prev;
  std::swap(next.assignments[0].owner, next.assignments[1].owner);
  const auto flows = exec.migration_flows(prev, next);
  ASSERT_EQ(flows.size(), 2u);
  // Each rank ships its whole 4^3 box and receives the other one.
  const std::int64_t box_bytes =
      64 * static_cast<std::int64_t>(cfg.ncomp) *
      static_cast<std::int64_t>(sizeof(real_t));
  for (rank_t k = 0; k < 2; ++k)
    EXPECT_EQ(incident_bytes(flows, k), 2 * box_bytes) << "rank " << k;
  // Initial scatter: everything leaves rank 0.
  const auto scatter = exec.migration_flows(PartitionResult{}, next);
  for (const RankFlow& f : scatter) EXPECT_EQ(f.src, 0);
}

}  // namespace
}  // namespace ssamr::sim
