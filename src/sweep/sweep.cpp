#include "sweep/sweep.hpp"

#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace shep {

const SweepPoint& SweepResult::At(std::size_t i_d, std::size_t i_k,
                                  std::size_t i_a) const {
  SHEP_REQUIRE(i_d < grid.days.size() && i_k < grid.ks.size() &&
                   i_a < grid.alphas.size(),
               "grid index out of range");
  return points[(i_d * grid.ks.size() + i_k) * grid.alphas.size() + i_a];
}

namespace {

template <typename Metric>
const SweepPoint* BestWhere(const SweepResult& r, Metric metric,
                            int require_k) {
  const SweepPoint* best = nullptr;
  double best_value = std::numeric_limits<double>::infinity();
  for (const auto& p : r.points) {
    if (require_k >= 0 && p.slots_k != require_k) continue;
    const double v = metric(p);
    if (v < best_value) {
      best_value = v;
      best = &p;
    }
  }
  return best;
}

double MapeOf(const SweepPoint& p) { return p.mean_stats.mape; }
double MapePrimeOf(const SweepPoint& p) { return p.boundary_stats.mape; }

}  // namespace

const SweepPoint& SweepResult::BestByMape() const {
  const auto* best = BestWhere(*this, MapeOf, -1);
  SHEP_CHECK(best != nullptr, "sweep produced no points");
  return *best;
}

const SweepPoint& SweepResult::BestByMapePrime() const {
  const auto* best = BestWhere(*this, MapePrimeOf, -1);
  SHEP_CHECK(best != nullptr, "sweep produced no points");
  return *best;
}

const SweepPoint* SweepResult::BestByMapeWithK(int k) const {
  return BestWhere(*this, MapeOf, k);
}

const SweepPoint* SweepResult::Find(double alpha, int days_d,
                                    int slots_k) const {
  for (const auto& p : points) {
    if (p.days_d == days_d && p.slots_k == slots_k &&
        std::fabs(p.alpha - alpha) < 1e-12) {
      return &p;
    }
  }
  return nullptr;
}

SweepResult SweepWcma(const SweepContext& context, const ParamGrid& grid,
                      const RoiFilter& filter, ThreadPool* pool,
                      WcmaWeighting weighting) {
  grid.Validate();
  SweepResult result;
  result.dataset = context.dataset();
  result.slots_per_day = context.slots_per_day();
  result.degenerate = context.series().grid().degenerate();
  result.grid = grid;
  result.points.resize(grid.size());

  const std::size_t n_k = grid.ks.size();
  const std::size_t n_a = grid.alphas.size();

  // Parallelism across D: each D owns a disjoint slice of `points`, and the
  // expensive BuildD/BuildQ work is D-local, so no synchronisation is
  // needed beyond the ParallelFor join.
  ParallelFor(pool, grid.days.size(), [&](std::size_t i_d) {
    const int days_d = grid.days[i_d];
    const auto d_series = context.BuildD(days_d);
    for (std::size_t i_k = 0; i_k < n_k; ++i_k) {
      const int slots_k = grid.ks[i_k];
      const auto q = context.BuildQ(d_series, slots_k, weighting);
      for (std::size_t i_a = 0; i_a < n_a; ++i_a) {
        const double alpha = grid.alphas[i_a];
        const auto score = context.Score(q, alpha, filter);
        SweepPoint& p = result.points[(i_d * n_k + i_k) * n_a + i_a];
        p.alpha = alpha;
        p.days_d = days_d;
        p.slots_k = slots_k;
        p.mean_stats = score.mean;
        p.boundary_stats = score.boundary;
      }
    }
  });
  return result;
}

}  // namespace shep
