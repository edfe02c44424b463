// Measurement helpers for the repository benchmark: sample statistics,
// counter deltas and the span rollup (self time, wall union, per-rank
// extremes) the traced run reports per layer.
//
// Everything here reads what cosmo::obs already records; nothing adds
// instrumentation to the program.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// sample statistics

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// A tail percentile with the number of samples strictly above it.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t beyond = 0;
};

/// The highest percentile of a fixed ladder that leaves at least ten
/// samples above it (nearest rank) when there are `floor_n` samples. The
/// rung is chosen on the run's guaranteed sample floor, not on the actual
/// count, so the same percentile is reported from run to run; the actual
/// count only makes `beyond` larger.
inline Tail tail_of(std::vector<double> v, std::size_t floor_n) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  auto rank_of = [](double p, std::size_t n) {
    const auto r = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    return r == 0 ? std::size_t{0} : r - 1;
  };
  t.percentile = 50.0;
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (floor_n > rank_of(p, floor_n) + 10) {
      t.percentile = p;
      break;
    }
  }
  const std::size_t idx = rank_of(t.percentile, v.size());
  t.value = v[idx];
  t.beyond = v.size() - idx - 1;
  return t;
}

// ---------------------------------------------------------------------------
// counters

using CounterSnapshot = std::map<std::string, std::uint64_t>;

/// Process totals of every registered counter.
inline CounterSnapshot snapshot_counters() {
  auto& reg = cosmo::obs::MetricsRegistry::instance();
  CounterSnapshot out;
  for (const auto& name : reg.counter_names())
    out[name] = reg.counter(name).total();
  return out;
}

/// after[name] − before[name]; a counter first registered in between
/// counts from zero, one never registered is zero.
inline std::uint64_t delta(const CounterSnapshot& before,
                           const CounterSnapshot& after,
                           const std::string& name) {
  const auto a = after.find(name);
  if (a == after.end()) return 0;
  const auto b = before.find(name);
  return a->second - (b == before.end() ? 0 : b->second);
}

// ---------------------------------------------------------------------------
// span rollup

/// Self time, wall union and per-rank breakdown of a set of spans.
///
/// Self time is a span's duration minus the durations of its direct
/// children — spans on the same thread one level deeper that it encloses.
/// Union time is, per name, the measure of the union of that name's
/// intervals over every thread. Spans from pool workers and other rank-less
/// threads carry rank -1.
struct SpanRollup {
  std::map<std::string, double> union_s;   ///< interval union over threads
  /// Σ self / Σ inclusive seconds per (name, rank).
  std::map<std::pair<std::string, int>, double> self_by_rank;
  std::map<std::pair<std::string, int>, double> total_by_rank;
  std::map<std::string, std::uint64_t> count;

  /// Per-thread self-time invariant: on every thread that ran an SPMD rank,
  /// the self times of all spans below the thread's wall span sum to no
  /// more than that wall. `wall_fallback_s` stands in for threads whose
  /// wall span was not recorded (the rank started before tracing did).
  std::size_t rank_threads = 0;
  std::size_t invariant_violations = 0;
  double worst_ratio = 0.0;  ///< max over threads of Σ self / wall

  double wall_union(const std::string& name) const {
    const auto it = union_s.find(name);
    return it == union_s.end() ? 0.0 : it->second;
  }

  /// Max / min over ranks ≥ 0 of a name's per-rank self (or inclusive) time.
  double max_rank(const std::string& name, bool inclusive = false) const {
    return extreme(name, inclusive, true);
  }
  double min_rank(const std::string& name, bool inclusive = false) const {
    return extreme(name, inclusive, false);
  }

 private:
  double extreme(const std::string& name, bool inclusive, bool want_max) const {
    const auto& m = inclusive ? total_by_rank : self_by_rank;
    bool any = false;
    double best = 0.0;
    for (auto it = m.lower_bound({name, 0});
         it != m.end() && it->first.first == name; ++it) {
      if (!any || (want_max ? it->second > best : it->second < best))
        best = it->second;
      any = true;
    }
    return best;
  }
};

inline SpanRollup rollup(const std::vector<cosmo::obs::Span>& spans,
                         double wall_fallback_s,
                         const std::string& wall_span = "spmd.rank") {
  SpanRollup r;
  std::map<int, std::vector<const cosmo::obs::Span*>> by_thread;
  for (const auto& s : spans) by_thread[s.tid].push_back(&s);

  for (auto& [tid, list] : by_thread) {
    // Start order, parents before children that start at the same instant.
    std::sort(list.begin(), list.end(), [](const auto* a, const auto* b) {
      return a->start_us != b->start_us ? a->start_us < b->start_us
                                        : a->depth < b->depth;
    });
    std::vector<double> child_s(list.size(), 0.0);
    std::vector<std::size_t> open;  // indices of enclosing spans
    for (std::size_t i = 0; i < list.size(); ++i) {
      while (!open.empty() && list[open.back()]->depth >= list[i]->depth)
        open.pop_back();
      if (!open.empty() && list[open.back()]->depth + 1 == list[i]->depth)
        child_s[open.back()] += list[i]->seconds();
      open.push_back(i);
    }
    bool is_rank_thread = false;
    double wall = 0.0, below_wall = 0.0;
    for (std::size_t i = 0; i < list.size(); ++i) {
      const auto& s = *list[i];
      const double self = s.seconds() - child_s[i];
      r.self_by_rank[{s.name, s.rank}] += self;
      r.total_by_rank[{s.name, s.rank}] += s.seconds();
      ++r.count[s.name];
      if (s.rank >= 0) is_rank_thread = true;
      if (s.name == wall_span)
        wall += s.seconds();
      else
        below_wall += self;
    }
    if (!is_rank_thread) continue;
    if (wall <= 0.0) wall = wall_fallback_s;
    ++r.rank_threads;
    const double ratio = wall > 0.0 ? below_wall / wall : 0.0;
    r.worst_ratio = std::max(r.worst_ratio, ratio);
    // One microsecond of slack per span for timestamp rounding.
    if (below_wall > wall + 1e-6 * static_cast<double>(list.size()))
      ++r.invariant_violations;
  }

  std::map<std::string, std::vector<std::pair<double, double>>> intervals;
  for (const auto& s : spans)
    intervals[s.name].emplace_back(s.start_us, s.end_us);
  for (auto& [name, iv] : intervals) {
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, lo = iv.front().first, hi = iv.front().second;
    for (const auto& [a, b] : iv) {
      if (a > hi) {
        covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    covered += hi - lo;
    r.union_s[name] = covered * 1e-6;
  }
  return r;
}

}  // namespace perfbench
