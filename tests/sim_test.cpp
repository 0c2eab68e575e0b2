// Unit tests of the discrete-event simulation core (src/sim): event-queue
// ordering, per-rank timelines, the fluid contention simulation and the
// directed traffic decompositions it consumes.

#include <cmath>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "partition/metrics.hpp"
#include "sim/executor.hpp"
#include "sim/event_queue.hpp"
#include "sim/message_sim.hpp"
#include "sim/timeline.hpp"
#include "util/error.hpp"

namespace ssamr::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue<int> q;
  q.push(Seconds{3.0}, 30);
  q.push(Seconds{1.0}, 10);
  q.push(Seconds{2.0}, 20);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_DOUBLE_EQ(q.next_time().value(), 1.0);
  EXPECT_EQ(q.pop().payload, 10);
  EXPECT_EQ(q.pop().payload, 20);
  EXPECT_EQ(q.pop().payload, 30);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TiesPopInPushOrder) {
  EventQueue<int> q;
  for (int i = 0; i < 8; ++i) q.push(Seconds{1.5}, i);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(q.pop().payload, i);
}

TEST(EventQueue, EmptyQueueRejectsAccess) {
  EventQueue<int> q;
  EXPECT_THROW(q.next_time(), Error);
  EXPECT_THROW(q.pop(), Error);
}


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
  RankTimeline tl(0);
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
  RankTimeline tl(2);
  tl.advance(Seconds{1.0}, SpanKind::kCompute);
  tl.advance(Seconds{1.0}, SpanKind::kIdle);
  EXPECT_EQ(tl.spans().size(), 1u);
  EXPECT_THROW(tl.advance(Seconds{0.5}, SpanKind::kIdle), Error);
  EXPECT_THROW(tl.skip_to(Seconds{0.5}), Error);
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

/// The historical O(T²) fluid loop: every event step scans ALL transfers,
/// skipping inactive ones.  The production simulator keeps an active-index
/// list instead; since that list stays sorted ascending, both visit
/// in-flight transfers in the same order and must produce bit-identical
/// finish times.
void reference_simulate(std::vector<Transfer>& transfers,
                        const std::vector<MbitsPerSec>& deliverable_mbps,
                        const NetworkModel& net) {
  const auto n = deliverable_mbps.size();
  std::vector<real_t> cap(n, 0);
  for (std::size_t k = 0; k < n; ++k)
    cap[k] =
        std::max(NetworkModel::kMinBandwidthMbps, deliverable_mbps[k]).value() *
        1.0e6 / 8.0;

  EventQueue<std::size_t> starts;
  std::vector<real_t> remaining(transfers.size(), 0);
  std::vector<char> active(transfers.size(), 0);
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    Transfer& tr = transfers[i];
    if (tr.bytes == Bytes{0} || tr.src == tr.dst) {
      tr.finish_time = tr.post_time;
      continue;
    }
    remaining[i] = static_cast<real_t>(tr.bytes.value());
    starts.push(tr.post_time + net.latency_s, i);
  }

  std::vector<int> tx_degree(n, 0);
  std::vector<int> rx_degree(n, 0);
  std::vector<real_t> rate(transfers.size(), 0);
  Seconds now{0};
  std::size_t n_active = 0;
  constexpr Seconds kInf{std::numeric_limits<real_t>::infinity()};

  while (n_active > 0 || !starts.empty()) {
    if (n_active == 0) now = std::max(now, starts.next_time());
    while (!starts.empty() && starts.next_time() <= now) {
      const std::size_t i = starts.pop().payload;
      active[i] = 1;
      ++n_active;
      ++tx_degree[static_cast<std::size_t>(transfers[i].src)];
      ++rx_degree[static_cast<std::size_t>(transfers[i].dst)];
    }
    Seconds dt_finish = kInf;
    std::size_t first_done = transfers.size();
    for (std::size_t i = 0; i < transfers.size(); ++i) {
      if (active[i] == 0) continue;
      const auto s = static_cast<std::size_t>(transfers[i].src);
      const auto d = static_cast<std::size_t>(transfers[i].dst);
      rate[i] = net.efficiency.value() *
                std::min(cap[s] / tx_degree[s], cap[d] / rx_degree[d]);
      const Seconds dt{remaining[i] / rate[i]};
      if (dt < dt_finish) {
        dt_finish = dt;
        first_done = i;
      }
    }
    const Seconds dt_start = starts.empty() ? kInf : starts.next_time() - now;
    const Seconds dt = std::min(dt_finish, dt_start);
    for (std::size_t i = 0; i < transfers.size(); ++i)
      if (active[i] != 0) remaining[i] -= rate[i] * dt.value();
    now += dt;
    if (dt_finish <= dt_start) {
      for (std::size_t i = 0; i < transfers.size(); ++i) {
        if (active[i] == 0) continue;
        if (i == first_done || remaining[i] <= 1e-6) {
          active[i] = 0;
          --n_active;
          --tx_degree[static_cast<std::size_t>(transfers[i].src)];
          --rx_degree[static_cast<std::size_t>(transfers[i].dst)];
          transfers[i].finish_time = now;
        }
      }
    }
  }
}

TEST(MessageSim, ActiveListMatchesFullScanReferenceBitExactly) {
  NetworkModel net;  // default latency and efficiency: realistic case
  const int nodes = 6;
  const std::vector<MbitsPerSec> bw = {MbitsPerSec{100.0}, MbitsPerSec{80.0},
                                       MbitsPerSec{120.0}, MbitsPerSec{60.0},
                                       MbitsPerSec{100.0}, MbitsPerSec{90.0}};
  // A deterministic pseudo-random mix: fan-outs, fan-ins, self/zero-byte
  // messages, staggered posts — enough churn that the active set turns
  // over many times.
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
  std::vector<Transfer> fast = ts;
  std::vector<Transfer> slow = ts;
  simulate_transfers(fast, bw, net);
  reference_simulate(slow, bw, net);
  for (std::size_t i = 0; i < ts.size(); ++i)
    EXPECT_EQ(fast[i].finish_time, slow[i].finish_time) << "transfer " << i;
}

/// The 200-transfer churn mix from the reference test above, reused for
/// the indexed-simulator comparisons.
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
  // residuals lazily per lane instead of sweeping all active transfers, so
  // finish times agree to rounding but not bit-for-bit.
  NetworkModel net;
  const std::vector<MbitsPerSec> bw = {MbitsPerSec{100.0}, MbitsPerSec{80.0},
                                       MbitsPerSec{120.0}, MbitsPerSec{60.0},
                                       MbitsPerSec{100.0}, MbitsPerSec{90.0}};
  std::vector<Transfer> exact = churn_mix(6);
  std::vector<Transfer> indexed = exact;
  const std::size_t exact_events = simulate_transfers(exact, bw, net);
  const std::size_t indexed_events = simulate_transfers_indexed(indexed, bw,
                                                                net);
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
  EXPECT_EQ(simulate_transfers_indexed(a, bw, net),
            simulate_transfers_indexed(b, bw, net));
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i].finish_time, b[i].finish_time) << "transfer " << i;
}

TEST(MessageSimIndexed, CountsTwoEventsPerNetworkTransfer) {
  // One admission + one completion per transfer that actually enters the
  // network; zero-byte and self transfers are free and uncounted.  Both
  // simulators must agree on the count.
  NetworkModel net;
  const std::vector<MbitsPerSec> bw(3, MbitsPerSec{100.0});
  std::vector<Transfer> ts = {
      Transfer{0, 1, Bytes{1 << 20}, Seconds{0}, Seconds{0}},
      Transfer{1, 2, Bytes{1 << 18}, Seconds{0.1}, Seconds{0}},
      Transfer{0, 0, Bytes{1 << 20}, Seconds{0}, Seconds{0}},  // self
      Transfer{2, 1, Bytes{0}, Seconds{0}, Seconds{0}}};       // empty
  std::vector<Transfer> ts2 = ts;
  EXPECT_EQ(simulate_transfers(ts, bw, net), 4u);
  EXPECT_EQ(simulate_transfers_indexed(ts2, bw, net), 4u);
}

TEST(MessageSimIndexed, FanOutContentionMatchesClosedForm) {
  // Two concurrent sends from one source: each sees half the tx lane, so
  // both finish in twice the solo time (plus latency) — same closed form
  // the exact path pins in ConcurrentSendsShareTheSourceNic.
  NetworkModel net;
  net.latency_s = Seconds{0};
  net.efficiency = Fraction{1.0};
  const std::vector<MbitsPerSec> bw(3, MbitsPerSec{100.0});
  const Bytes bytes{1250000};  // 0.1 s solo at 100 Mbit/s
  std::vector<Transfer> ts = {Transfer{0, 1, bytes, Seconds{0}, Seconds{0}},
                              Transfer{0, 2, bytes, Seconds{0}, Seconds{0}}};
  simulate_transfers_indexed(ts, bw, net);
  EXPECT_NEAR(ts[0].finish_time.value(), 0.2, 1e-9);
  EXPECT_NEAR(ts[1].finish_time.value(), 0.2, 1e-9);
}

/// Transfers whose residual, after a slowdown, drains in less than half an
/// ulp of the virtual clock.  Past 1024 s the re-armed deadline
/// `now + remaining / rate` rounds back to `now`; the indexed simulator
/// must finish such a transfer instead of re-arming it forever (CMake
/// gives this binary a hard timeout, so a regression fails, not hangs).
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
    EXPECT_EQ(simulate_transfers(exact, bw, net),
              simulate_transfers_indexed(indexed, bw, net));
    for (std::size_t i = 0; i < exact.size(); ++i)
      EXPECT_EQ(indexed[i].finish_time, exact[i].finish_time)
          << "t0 " << t0 << " transfer " << i;
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

TEST(PairwiseComm, FlowsMatchAggregatePerRank) {
  const PartitionResult r = two_adjacent_boxes();
  const auto flows = pairwise_comm_bytes(r, /*ghost=*/1, /*ncomp=*/2);
  ASSERT_EQ(flows.size(), 2u);  // 0→1 and 1→0
  for (rank_t k = 0; k < 2; ++k) {
    std::int64_t incident = 0;
    for (const RankFlow& f : flows)
      if (f.src == k || f.dst == k) incident += f.bytes;
    EXPECT_EQ(incident, rank_comm_bytes(r, k, 1, 2));
  }
}

TEST(MigrationFlows, MatchAggregatePerRank) {
  Cluster cluster = Cluster::homogeneous(2);
  VirtualExecutor exec(cluster, ExecutorConfig{});
  const PartitionResult prev = two_adjacent_boxes();
  PartitionResult next = prev;
  std::swap(next.assignments[0].owner, next.assignments[1].owner);
  const auto flows = exec.migration_flows(prev, next);
  ASSERT_EQ(flows.size(), 2u);
  for (rank_t k = 0; k < 2; ++k) {
    std::int64_t incident = 0;
    for (const RankFlow& f : flows)
      if (f.src == k || f.dst == k) incident += f.bytes;
    EXPECT_EQ(Bytes{incident}, exec.migration_bytes(prev, next, k));
  }
  // Initial scatter: everything leaves rank 0.
  const auto scatter = exec.migration_flows(PartitionResult{}, next);
  for (const RankFlow& f : scatter) EXPECT_EQ(f.src, 0);
}

}  // namespace
}  // namespace ssamr::sim
