#include "sim/message_sim.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "sim/event_queue.hpp"
#include "util/error.hpp"

namespace ssamr::sim {

namespace {

/// Residual below which a transfer counts as drained (absolute bytes; a
/// residual whose deadline rounds to the current clock retires regardless,
/// so the loop always progresses).
constexpr real_t kDrainedBytes = 1e-6;

/// Deliverable endpoint capacities in bytes/s, floored like NetworkModel.
void endpoint_caps(const std::vector<MbitsPerSec>& deliverable_mbps,
                   std::vector<BytesPerSec>& cap) {
  cap.assign(deliverable_mbps.size(), BytesPerSec{0});
  for (std::size_t k = 0; k < cap.size(); ++k)
    cap[k] = to_bytes_per_sec(
        std::max(NetworkModel::kMinBandwidthMbps, deliverable_mbps[k]));
}

/// A transfer's entry into the shared-bandwidth phase.
using StartEvent = SimWorkspace::Entry;

/// Validate endpoints, sizes and post times, finish the trivial transfers
/// (zero bytes or src == dst) at their post time, and list the rest at
/// their network entry time (post + one latency) in transfer order.
void admit_transfers(std::vector<Transfer>& transfers, std::size_t n,
                     const NetworkModel& net,
                     std::vector<StartEvent>& starts) {
  starts.clear();
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    Transfer& tr = transfers[i];
    SSAMR_REQUIRE(tr.src >= 0 && static_cast<std::size_t>(tr.src) < n &&
                      tr.dst >= 0 && static_cast<std::size_t>(tr.dst) < n,
                  "transfer endpoint out of range");
    SSAMR_REQUIRE(tr.bytes >= Bytes{0}, "negative transfer size");
    SSAMR_REQUIRE(std::isfinite(tr.post_time.value()) &&
                      tr.post_time >= Seconds{0},
                  "transfer post time must be finite and non-negative");
    if (tr.bytes == Bytes{0} || tr.src == tr.dst) {
      tr.finish_time = tr.post_time;  // local/empty: free, like the
      continue;                       // closed-form model
    }
    // The per-message latency is charged exactly once, as a delayed entry
    // into the shared-bandwidth phase.
    starts.push_back({tr.post_time + net.latency_s,
                      static_cast<std::uint32_t>(i)});
  }
}

}  // namespace

std::size_t simulate_transfers(std::vector<Transfer>& transfers,
                               const std::vector<MbitsPerSec>& deliverable_mbps,
                               const NetworkModel& net) {
  SimWorkspace ws;
  return simulate_transfers(transfers, deliverable_mbps, net, ws);
}

std::size_t simulate_transfers(std::vector<Transfer>& transfers,
                               const std::vector<MbitsPerSec>& deliverable_mbps,
                               const NetworkModel& net, SimWorkspace& ws) {
  net.validate();
  const auto n = deliverable_mbps.size();
  endpoint_caps(deliverable_mbps, ws.cap);
  const std::vector<BytesPerSec>& cap = ws.cap;

  // Admissions are known upfront, so they live in a flat list sorted by
  // entry time (stable: ties are admitted in transfer order) and drain
  // through a cursor — no heap.
  admit_transfers(transfers, n, net, ws.starts);
  std::vector<StartEvent>& starts = ws.starts;
  std::stable_sort(starts.begin(), starts.end(),
                   [](const StartEvent& a, const StartEvent& b) {
                     return a.time < b.time;
                   });
  std::size_t next_start = 0;

  // Per-transfer fluid state, one packed 32-byte record each (see
  // SimWorkspace::Fluid).  fluid[i].rate < 0 marks an inactive (unadmitted
  // or retired) transfer; 0 marks an admitted transfer awaiting its first
  // share.
  using Fluid = SimWorkspace::Fluid;
  ws.fluid.resize(transfers.size());
  std::vector<Fluid>& fluid = ws.fluid;
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    const Transfer& tr = transfers[i];
    fluid[i] = Fluid{-1, static_cast<std::uint32_t>(tr.src),
                     static_cast<std::uint32_t>(tr.dst),
                     static_cast<real_t>(tr.bytes.value()), Seconds{0}};
  }
  // Per-endpoint lanes: ascending ids of the active transfers sending from
  // (tx) / receiving at (rx) each endpoint.  Full duplex, as above.
  // resize keeps surviving lanes' heap blocks; the per-lane clear keeps
  // their capacity, so steady-state reuse allocates nothing here.
  ws.tx_list.resize(n);
  ws.rx_list.resize(n);
  for (auto& v : ws.tx_list) v.clear();
  for (auto& v : ws.rx_list) v.clear();
  std::vector<std::vector<std::uint32_t>>& tx_list = ws.tx_list;
  std::vector<std::vector<std::uint32_t>>& rx_list = ws.rx_list;
  ws.tx_degree.assign(n, 0);
  ws.rx_degree.assign(n, 0);
  std::vector<int>& tx_degree = ws.tx_degree;
  std::vector<int>& rx_degree = ws.rx_degree;
  // Per-lane equal shares (efficiency · cap / degree), recomputed only for
  // lanes whose degree changed: two divisions per dirty lane instead of
  // two per affected transfer.  min(eff·a, eff·b) picks the same quotient
  // as eff·min(a, b), so rates are bit-identical to the direct form.
  ws.share_tx.assign(n, BytesPerSec{0});
  ws.share_rx.assign(n, BytesPerSec{0});
  std::vector<BytesPerSec>& share_tx = ws.share_tx;
  std::vector<BytesPerSec>& share_rx = ws.share_rx;
  ws.completions.reset(transfers.size());
  RetimableEventQueue& completions = ws.completions;
  std::size_t events = 0;
  std::size_t active_count = 0;
  Seconds now{0};

  const auto insert_sorted = [](std::vector<std::uint32_t>& v,
                                std::uint32_t i) {
    v.insert(std::lower_bound(v.begin(), v.end(), i), i);
  };
  const auto sort_unique = [](std::vector<std::size_t>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };

  // Lanes whose degree changed this event: the re-rate frontier.
  ws.pending_tx.clear();
  ws.pending_rx.clear();
  ws.cur_tx.clear();
  ws.cur_rx.clear();
  std::vector<std::size_t>& pending_tx = ws.pending_tx;
  std::vector<std::size_t>& pending_rx = ws.pending_rx;
  std::vector<std::size_t>& cur_tx = ws.cur_tx;
  std::vector<std::size_t>& cur_rx = ws.cur_rx;

  // Retirement is lazy with respect to the lane lists: the degree counters
  // (which price the shares) drop immediately, but the member id stays in
  // its lanes until the next re-rate visit compacts it out.  Eager removal
  // would memmove the lane tail twice per retirement and force the re-rate
  // pass to iterate a snapshot of the lanes instead of the lanes
  // themselves — copying every affected member id per round just to guard
  // against mid-pass erasure.
  // finish_time lands in the Fluid record first (`last` is exactly the
  // finish time once the final settle ran) and is copied out to the
  // transfer array in one sequential sweep at the end — retirements fire
  // in random id order, and scattering 8-byte writes across the transfer
  // array would cost a cold line each at large P.
  const auto retire = [&](std::uint32_t i, Fluid& f) {
    f.rate = -1;
    --active_count;
    completions.cancel(i);
    --tx_degree[f.src];
    --rx_degree[f.dst];
    pending_tx.push_back(f.src);
    pending_rx.push_back(f.dst);
    ++events;
  };

  while (active_count > 0 || next_start < starts.size()) {
    // Next event: earliest valid completion or admission.
    Seconds t_next = next_start < starts.size()
                         ? starts[next_start].time
                         : Seconds{std::numeric_limits<real_t>::infinity()};
    if (!completions.empty())
      t_next = std::min(t_next, completions.next_time());
    now = std::max(now, t_next);

    pending_tx.clear();
    pending_rx.clear();

    // Completions due now: their rate has been constant since `last`, so
    // the residual drains in one settle step.  The heap's front nodes are
    // the only candidates for these pops; start their state lines early.
    {
      std::uint32_t hint[5];
      const std::size_t m = completions.front_ids(hint, 5);
      for (std::size_t h = 0; h < m; ++h) __builtin_prefetch(&fluid[hint[h]]);
    }
    while (!completions.empty() && completions.next_time() <= now) {
      const auto i = static_cast<std::uint32_t>(completions.pop());
      Fluid& f = fluid[i];
      f.remaining -= drained_bytes(BytesPerSec{f.rate}, now - f.last);
      f.last = now;
      // A live residual means the deadline was optimistic: the rate
      // dropped after it was queued (slowdowns never touch the heap).
      // Re-arm at the exact finish under the rate in force; every
      // slowdown since the last arm is absorbed by this one re-timing.
      // A residual that drains in under half an ulp of the clock would
      // re-arm at `now` and drain nothing, forever: it finishes now, like
      // a drained one.
      const Seconds finish = f.remaining <= kDrainedBytes
                                 ? now
                                 : now + Seconds{f.remaining / f.rate};
      if (finish == now) {
        retire(i, f);
        continue;
      }
      completions.schedule(finish, i);
    }
    // Admissions due now.
    while (next_start < starts.size() && starts[next_start].time <= now) {
      const std::uint32_t i = starts[next_start++].id;
      Fluid& f = fluid[i];
      f.rate = 0;
      f.last = now;
      ++active_count;
      insert_sorted(tx_list[f.src], i);
      insert_sorted(rx_list[f.dst], i);
      ++tx_degree[f.src];
      ++rx_degree[f.dst];
      pending_tx.push_back(f.src);
      pending_rx.push_back(f.dst);
      ++events;
    }

    // Re-rate one lane in place.  A member whose min-share is unchanged
    // needs nothing at all — its lazy residual stays consistent under a
    // constant rate and its queued deadline is still exact — so the common
    // case (the retiring lane was not the member's bottleneck) costs one
    // compare.  A member whose share moved settles under its old rate,
    // retires if it ran dry (touching more lanes, hence the fixpoint), or
    // re-arms its deadline at the new rate.  Members found retired — here
    // or by an earlier lane this round — compact out as the walk passes.
    const auto visit_lane = [&](std::vector<std::uint32_t>& lane) {
      // The caller prefetched this lane's fluid and position-map lines
      // before the previous lane's walk, so the data-dependent random
      // reads below mostly land in cache by the time the walk arrives.
      // With the position map now resident, the heap entries the walk's
      // re-schedules will move are addressable — second-stage prefetch.
      for (const std::uint32_t i : lane) completions.prefetch_entry(i);
      std::size_t keep = 0;
      for (std::size_t a = 0; a < lane.size(); ++a) {
        const std::uint32_t i = lane[a];
        Fluid& f = fluid[i];
        const real_t rate = f.rate;
        if (rate < 0) continue;  // retired: drop from the lane
        const BytesPerSec share = std::min(share_tx[f.src], share_rx[f.dst]);
        if (share.value() == rate) {
          lane[keep++] = i;
          continue;
        }
        f.remaining -= drained_bytes(BytesPerSec{rate}, now - f.last);
        f.last = now;
        if (f.remaining <= kDrainedBytes) {
          retire(i, f);
          continue;  // drop from this lane; its other lane compacts later
        }
        // A slowdown leaves the queued deadline in place: it is now early,
        // and the completion pass re-arms it on pop.  Only a speedup can
        // make the true finish precede the queued time, so only a speedup
        // pays for a decrease-key here.
        f.rate = share.value();
        if (share.value() > rate) {
          const Seconds dt{f.remaining / share.value()};
          completions.schedule(now + dt, i);
        }
        lane[keep++] = i;
      }
      lane.resize(keep);
    };

    // Re-rate fixpoint: recompute the touched lanes' equal shares, then
    // walk each touched lane.  Retirements discovered mid-pass queue their
    // lanes for the next round (pending_* are swapped out before the walk,
    // so the push is safe).  Processing order is ascending by lane then
    // id, so the pass is deterministic; a transfer whose lanes are both
    // touched needs no dedup — its first visit leaves rate equal to its
    // share (or retires it), so the revisit skips.
    while (!pending_tx.empty() || !pending_rx.empty()) {
      sort_unique(pending_tx);
      sort_unique(pending_rx);
      for (const std::size_t e : pending_tx)
        if (tx_degree[e] > 0)
          share_tx[e] = net.efficiency * (cap[e] / tx_degree[e]);
      for (const std::size_t e : pending_rx)
        if (rx_degree[e] > 0)
          share_rx[e] = net.efficiency * (cap[e] / rx_degree[e]);
      cur_tx.swap(pending_tx);
      cur_rx.swap(pending_rx);
      pending_tx.clear();
      pending_rx.clear();
      // Start the NEXT lane's lines while the current lane's walk runs:
      // each walk is long enough to hide most of its successor's misses.
      // (Lane lists are stable here — retirement is lazy — so reading
      // ahead is safe.)
      const auto prefetch_lane = [&](const std::vector<std::uint32_t>& lane) {
        for (const std::uint32_t i : lane) {
          __builtin_prefetch(&fluid[i]);
          completions.prefetch(i);
        }
      };
      if (!cur_tx.empty())
        prefetch_lane(tx_list[cur_tx.front()]);
      else if (!cur_rx.empty())
        prefetch_lane(rx_list[cur_rx.front()]);
      for (std::size_t x = 0; x < cur_tx.size(); ++x) {
        if (x + 1 < cur_tx.size())
          prefetch_lane(tx_list[cur_tx[x + 1]]);
        else if (!cur_rx.empty())
          prefetch_lane(rx_list[cur_rx.front()]);
        visit_lane(tx_list[cur_tx[x]]);
      }
      for (std::size_t x = 0; x < cur_rx.size(); ++x) {
        if (x + 1 < cur_rx.size()) prefetch_lane(rx_list[cur_rx[x + 1]]);
        visit_lane(rx_list[cur_rx[x]]);
      }
    }
  }
  // Deferred finish times: every admitted transfer has retired (the loop
  // above runs the system dry), with its finish time parked in `last`.
  for (const StartEvent& e : starts) {
    Transfer& tr = transfers[e.id];
    tr.finish_time = fluid[e.id].last;
  }
  return events;
}

}  // namespace ssamr::sim
