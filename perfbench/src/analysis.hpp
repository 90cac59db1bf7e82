// The benchmark's arithmetic: percentiles, span self time, per-message
// normalisation. Pure functions over plain values, so the unit tests in
// perfbench/tests can pin every rule the reported metrics depend on.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// One percentile of a sample set, with the number of samples strictly
/// above the rank it was read at (the choosing-metrics rule: report the
/// highest percentile that keeps at least ten samples beyond it).
struct Pct {
  double value = 0.0;
  std::size_t n = 0;       // sample count
  std::size_t beyond = 0;  // samples ranked above the percentile
};

/// Nearest-rank percentile of `sorted` (ascending), q in (0, 1]: the
/// value at rank ceil(q * n). An empty set reads as 0 with n = 0.
inline Pct percentile_sorted(const std::vector<double>& sorted, double q) {
  Pct p;
  p.n = sorted.size();
  if (p.n == 0) return p;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(p.n)));
  rank = std::clamp<std::size_t>(rank, 1, p.n);
  p.value = sorted[rank - 1];
  p.beyond = p.n - rank;
  return p;
}

/// Sorts a copy of `v` and reads one percentile from it.
inline Pct percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, q);
}

/// Median by the same nearest-rank rule (the lower middle of an even set).
inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5).value; }

/// Latency samples counted per clock tick: exact nearest-rank percentiles
/// at the clock's own resolution, in fixed memory however many samples a
/// run takes. Samples of kDirect ticks or more are kept one by one.
class TickHistogram {
 public:
  static constexpr std::size_t kDirect = std::size_t{1} << 18;

  TickHistogram() : counts_(kDirect, 0) {}

  void add(std::uint64_t ticks) {
    if (ticks < kDirect) {
      ++counts_[ticks];
    } else {
      over_.push_back(ticks);
    }
    ++n_;
  }

  [[nodiscard]] std::size_t size() const { return n_; }

  /// Same rule as percentile_sorted; the value is in ticks.
  [[nodiscard]] Pct percentile(double q) const {
    Pct p;
    p.n = n_;
    if (n_ == 0) return p;
    auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n_)));
    rank = std::clamp<std::size_t>(rank, 1, n_);
    p.beyond = n_ - rank;
    std::size_t seen = 0;
    for (std::size_t t = 0; t < kDirect; ++t) {
      seen += counts_[t];
      if (seen >= rank) {
        p.value = static_cast<double>(t);
        return p;
      }
    }
    std::vector<std::uint64_t> over = over_;
    std::sort(over.begin(), over.end());
    p.value = static_cast<double>(over[rank - seen - 1]);
    return p;
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::vector<std::uint64_t> over_;
  std::size_t n_ = 0;
};

/// `count` per message; 0 when no message was handled (a layer that never
/// ran costs nothing per message, and JSON has no NaN).
inline double per_msg(double count, double msgs) {
  return msgs > 0.0 ? count / msgs : 0.0;
}

/// A closed span: [t0, t1) on one clock, and the index of the span that
/// caused it (-1 for a root). Spans of one request share a tag.
struct Interval {
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::int32_t parent = -1;
};

/// Self time of every span: its duration minus the part of [t0, t1) that
/// its direct children cover. Children are clipped to the parent and
/// overlapping children are counted once, so self time is never negative
/// and the self times of a tree sum to the root's duration whenever the
/// children nest inside their parents.
inline std::vector<std::int64_t> self_times(const std::vector<Interval>& spans) {
  const std::size_t n = spans.size();
  std::vector<std::vector<std::size_t>> children(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < n) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::vector<std::int64_t> self(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Interval& s = spans[i];
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    cover.reserve(children[i].size());
    for (const std::size_t c : children[i]) {
      const std::int64_t a = std::max(spans[c].t0, s.t0);
      const std::int64_t b = std::min(spans[c].t1, s.t1);
      if (b > a) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t end = s.t0;
    for (const auto& [a, b] : cover) {
      const std::int64_t from = std::max(a, end);
      if (b > from) covered += b - from;
      end = std::max(end, b);
    }
    self[i] = std::max<std::int64_t>(0, (s.t1 - s.t0) - covered);
  }
  return self;
}

}  // namespace perfbench
