#include "localize/peak.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

namespace rfly::localize {

namespace {

/// Union-find over grid cells for the watershed prominence sweep.
class DisjointSets {
 public:
  explicit DisjointSets(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }

  std::size_t find(std::size_t i) {
    while (parent_[i] != i) {
      parent_[i] = parent_[parent_[i]];
      i = parent_[i];
    }
    return i;
  }

  void unite_into(std::size_t child_root, std::size_t parent_root) {
    parent_[child_root] = parent_root;
  }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

std::vector<Peak> find_peaks(const Heatmap& map, double threshold_fraction,
                             double prominence_fraction) {
  const std::size_t nx = map.grid.nx();
  const std::size_t ny = map.grid.ny();
  const std::size_t n = nx * ny;
  if (n == 0) return {};
  const double global_max = map.max_value();
  if (global_max <= 0.0) return {};
  const std::vector<double>& values = map.values;
  const double value_floor = threshold_fraction * global_max;
  // The exact complement of the report filter's `v < value_floor` below.
  const auto clears_floor = [value_floor](double v) { return !(v < value_floor); };

  // The sweep activates cells by descending value (ties by ascending index).
  // Only summits that clear the floor can be reported. A component whose
  // summit is below the floor always dies into a higher one, so it never
  // decides a reported prominence. The cells that clear the floor are
  // therefore sorted and swept first. The rest are swept only while two or
  // more components with such a summit are still unmerged, because the
  // remaining saddles decide only those components' prominences.
  std::vector<std::size_t> order(n);
  std::size_t n_high = 0;
  std::size_t low_begin = n;
  for (std::size_t cell = 0; cell < n; ++cell) {
    if (clears_floor(values[cell])) {
      order[n_high++] = cell;
    } else {
      order[--low_begin] = cell;
    }
  }
  if (n_high == 0) return {};
  const auto descending = [&values](std::size_t a, std::size_t b) {
    return values[a] > values[b] || (values[a] == values[b] && a < b);
  };
  std::sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(n_high),
            descending);

  // A component's root is its summit: the first cell of the component, and
  // the one every later cell and every dying component is united into.
  DisjointSets sets(n);
  std::vector<std::uint8_t> active(n, 0);
  std::vector<double> prominence(n, -1.0);  // finalized per summit cell
  std::size_t open_summits = 0;  // unmerged components clearing the floor

  const auto activate = [&](std::size_t cell) {
    const double v = values[cell];
    // Distinct neighbouring components, in row-major neighbour order.
    std::size_t roots[8];
    std::size_t n_roots = 0;
    const std::size_t ix = cell % nx;
    const std::size_t iy = cell / nx;
    const std::size_t x_end = std::min(ix + 2, nx);
    const std::size_t y_end = std::min(iy + 2, ny);
    for (std::size_t jy = iy > 0 ? iy - 1 : 0; jy < y_end; ++jy) {
      for (std::size_t jx = ix > 0 ? ix - 1 : 0; jx < x_end; ++jx) {
        const std::size_t nb = jy * nx + jx;
        if (!active[nb]) continue;  // also skips `cell` itself
        const std::size_t r = sets.find(nb);
        if (std::find(roots, roots + n_roots, r) == roots + n_roots) {
          roots[n_roots++] = r;
        }
      }
    }

    active[cell] = 1;
    if (n_roots == 0) {
      // A fresh summit.
      if (clears_floor(v)) ++open_summits;
      return;
    }

    // Merge everything into the component with the highest summit; every
    // other component dies here, and `v` is its saddle.
    std::size_t best = roots[0];
    for (std::size_t k = 1; k < n_roots; ++k) {
      if (values[roots[k]] > values[best]) best = roots[k];
    }
    for (std::size_t k = 0; k < n_roots; ++k) {
      const std::size_t r = roots[k];
      if (r == best) continue;
      prominence[r] = values[r] - v;
      if (clears_floor(values[r])) --open_summits;
      sets.unite_into(r, best);
    }
    sets.unite_into(cell, best);
  };

  for (std::size_t k = 0; k < n_high; ++k) activate(order[k]);
  if (open_summits > 1) {
    std::sort(order.begin() + static_cast<std::ptrdiff_t>(n_high), order.end(),
              descending);
    for (std::size_t k = n_high; k < n && open_summits > 1; ++k) {
      activate(order[k]);
    }
  }

  // The global maximum's component never merged into anything: its
  // prominence is its own height.
  const std::size_t global_root = sets.find(order.front());
  prominence[global_root] = values[global_root];

  std::vector<Peak> peaks;
  for (std::size_t cell = 0; cell < n; ++cell) {
    if (prominence[cell] < 0.0) continue;  // not a summit
    const double v = map.values[cell];
    if (v < value_floor || prominence[cell] < prominence_fraction * v) continue;
    Peak p;
    p.x = map.grid.x_at(cell % nx);
    p.y = map.grid.y_at(cell / nx);
    p.value = v;
    p.prominence = prominence[cell];
    peaks.push_back(p);
  }
  std::sort(peaks.begin(), peaks.end(),
            [](const Peak& a, const Peak& b) { return a.value > b.value; });
  return peaks;
}

void annotate_distances(std::vector<Peak>& peaks,
                        const std::vector<channel::Vec3>& trajectory) {
  for (auto& p : peaks) {
    p.distance_to_trajectory =
        drone::distance_to_trajectory(trajectory, {p.x, p.y, 0.0});
  }
}

Peak select_peak(std::vector<Peak> candidates, PeakSelection strategy,
                 const std::vector<channel::Vec3>& trajectory) {
  if (candidates.empty()) return {};
  annotate_distances(candidates, trajectory);
  if (strategy == PeakSelection::kHighest) {
    return *std::max_element(candidates.begin(), candidates.end(),
                             [](const Peak& a, const Peak& b) {
                               return a.value < b.value;
                             });
  }
  return *std::min_element(candidates.begin(), candidates.end(),
                           [](const Peak& a, const Peak& b) {
                             return a.distance_to_trajectory <
                                    b.distance_to_trajectory;
                           });
}

}  // namespace rfly::localize
