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

const ErrorStats& MeanStats(const SweepPoint& p) { return p.mean_stats; }
const ErrorStats& BoundaryStats(const SweepPoint& p) {
  return p.boundary_stats;
}

// An unscored point (count 0) carries MAPE 0, which is no optimum.  The
// ROI depends only on the slot, never on (α, D, K), so a sweep scores
// either every point or none.
template <typename Stats>
const SweepPoint* BestWhere(const SweepResult& r, Stats stats,
                            int require_k) {
  const SweepPoint* best = nullptr;
  bool scored = false;
  double best_value = std::numeric_limits<double>::infinity();
  for (const auto& p : r.points) {
    if (!stats(p).valid()) continue;
    scored = true;
    if (require_k >= 0 && p.slots_k != require_k) continue;
    const double v = stats(p).mape;
    if (v < best_value) {
      best_value = v;
      best = &p;
    }
  }
  SHEP_REQUIRE(scored, "sweep scored no slot: the ROI excludes every one");
  return best;
}

}  // namespace

const SweepPoint& SweepResult::BestByMape() const {
  const auto* best = BestWhere(*this, MeanStats, -1);
  SHEP_CHECK(best != nullptr, "no scored point has a finite MAPE");
  return *best;
}

const SweepPoint& SweepResult::BestByMapePrime() const {
  const auto* best = BestWhere(*this, BoundaryStats, -1);
  SHEP_CHECK(best != nullptr, "no scored point has a finite MAPE'");
  return *best;
}

const SweepPoint* SweepResult::BestByMapeWithK(int k) const {
  return BestWhere(*this, MeanStats, k);
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

  // Every K and α is checked, and the ROI walked, before any D task runs.
  const SweepContext::GridScorer scorer(context, grid.ks, grid.alphas,
                                        filter, weighting);
  // Parallelism across D: each D owns a disjoint slice of `points`, and
  // BuildD and the scoring pass are D-local, so no synchronisation is
  // needed beyond the ParallelFor join.
  ParallelFor(pool, grid.days.size(), [&](std::size_t i_d) {
    const int days_d = grid.days[i_d];
    const auto scores = scorer.ScoreD(context.BuildD(days_d));
    for (std::size_t i_k = 0; i_k < n_k; ++i_k) {
      for (std::size_t i_a = 0; i_a < n_a; ++i_a) {
        SweepPoint& p = result.points[(i_d * n_k + i_k) * n_a + i_a];
        p.alpha = grid.alphas[i_a];
        p.days_d = days_d;
        p.slots_k = grid.ks[i_k];
        p.mean_stats = scores[i_k * n_a + i_a].mean;
        p.boundary_stats = scores[i_k * n_a + i_a].boundary;
      }
    }
  });
  return result;
}

}  // namespace shep
