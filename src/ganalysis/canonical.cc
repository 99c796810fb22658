#include "ganalysis/canonical.h"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <utility>

namespace wrbpg {

namespace {

// Ordered partition of V refined to the coarsest equitable partition of
// its seed (see the header comment). Cells are contiguous ranges of one
// position array and are named by their start position; a cell only ever
// splits off fragments behind its first one, so a name stays valid for
// the life of the refiner. Copyable: ComputeOrbits refines once and
// copies the stable state for every individualize-first labeling.
class Refiner {
 public:
  // Seeds the cells by (weight, in-degree, out-degree), queues every seed
  // cell, and refines to the stable partition.
  explicit Refiner(const Graph& graph);

  // Splits v off its cell (a no-op for a singleton) and refines the
  // partition again, incrementally: only the new singleton is queued.
  void Individualize(NodeId v);

  // Smallest vertex id in the first non-singleton cell, or kInvalidNode
  // once the partition is discrete.
  NodeId SmallestInFirstOpenCell();

  // Colors are cell ranks in position order.
  ColorRefinement Colors() const;

  // Position of each vertex; a labeling once the partition is discrete.
  const std::vector<std::uint32_t>& positions() const { return position_; }

 private:
  void Refine();
  // Counts, for every vertex, its children (`children` true) or parents in
  // the cell range [begin, end), then splits each touched cell by count.
  void CountAndSplit(std::uint32_t begin, std::uint32_t end, bool children);
  // Splits the cell at `start` whose touched members are
  // touched_[first, last), sorted by ascending count.
  void SplitCell(std::uint32_t start, std::size_t first, std::size_t last);
  void Enqueue(std::uint32_t start);
  void MoveTo(NodeId v, std::uint32_t pos);

  const Graph* graph_;
  std::uint32_t n_;
  std::uint32_t num_cells_ = 0;
  std::uint32_t first_open_ = 0;      // every cell before it is a singleton
  std::vector<NodeId> element_;       // position -> vertex
  std::vector<std::uint32_t> position_;   // vertex -> position
  std::vector<std::uint32_t> cell_of_;    // vertex -> start of its cell
  std::vector<std::uint32_t> cell_end_;   // cell start -> one past its end
  std::vector<unsigned char> queued_;     // cell start -> in the queue
  std::vector<std::uint32_t> queue_;      // FIFO ring of cell starts
  std::uint32_t queue_head_ = 0;
  std::uint32_t queue_size_ = 0;
  std::vector<std::uint32_t> count_;  // vertex -> edges into the splitter
  std::vector<NodeId> touched_;       // vertices with count_ > 0
  std::vector<std::uint32_t> fragments_;  // SplitCell scratch
};

Refiner::Refiner(const Graph& graph)
    : graph_(&graph),
      n_(graph.num_nodes()),
      element_(n_),
      position_(n_),
      cell_of_(n_),
      cell_end_(n_),
      queued_(n_, 0),
      queue_(n_),
      count_(n_, 0) {
  std::iota(element_.begin(), element_.end(), NodeId{0});
  auto seed_less = [&](NodeId a, NodeId b) {
    const Weight wa = graph.weight(a);
    const Weight wb = graph.weight(b);
    if (wa != wb) return wa < wb;
    if (graph.in_degree(a) != graph.in_degree(b)) {
      return graph.in_degree(a) < graph.in_degree(b);
    }
    return graph.out_degree(a) < graph.out_degree(b);
  };
  std::sort(element_.begin(), element_.end(), seed_less);
  for (std::uint32_t start = 0; start < n_;) {
    std::uint32_t end = start + 1;
    while (end < n_ && !seed_less(element_[start], element_[end])) ++end;
    cell_end_[start] = end;
    for (std::uint32_t p = start; p < end; ++p) {
      position_[element_[p]] = p;
      cell_of_[element_[p]] = start;
    }
    ++num_cells_;
    Enqueue(start);
    start = end;
  }
  Refine();
}

void Refiner::Enqueue(std::uint32_t start) {
  queued_[start] = 1;
  queue_[(queue_head_ + queue_size_) % n_] = start;
  ++queue_size_;
}

void Refiner::MoveTo(NodeId v, std::uint32_t pos) {
  const NodeId displaced = element_[pos];
  element_[position_[v]] = displaced;
  position_[displaced] = position_[v];
  element_[pos] = v;
  position_[v] = pos;
}

void Refiner::Refine() {
  while (queue_size_ > 0) {
    const std::uint32_t start = queue_[queue_head_];
    queue_head_ = (queue_head_ + 1) % n_;
    --queue_size_;
    queued_[start] = 0;
    if (num_cells_ == n_) continue;  // discrete: drain the queue
    // The splitter's range is read once: splitting only permutes vertices
    // inside cells, so [start, end) holds the same set for both passes.
    const std::uint32_t end = cell_end_[start];
    CountAndSplit(start, end, /*children=*/true);
    CountAndSplit(start, end, /*children=*/false);
  }
}

void Refiner::CountAndSplit(std::uint32_t begin, std::uint32_t end,
                            bool children) {
  const Graph& graph = *graph_;
  for (std::uint32_t p = begin; p < end; ++p) {
    const NodeId w = element_[p];
    // Counted from W's side: each parent u of w has one more child in W
    // (or, for parents in W, each child u of w one more parent in W).
    for (const NodeId u : children ? graph.parents(w) : graph.children(w)) {
      if (cell_end_[cell_of_[u]] == cell_of_[u] + 1) continue;  // singleton
      if (count_[u]++ == 0) touched_.push_back(u);
    }
  }
  // Touched cells split in ascending start order, and each by ascending
  // count: positions and counts, never vertex ids, decide every order.
  std::sort(touched_.begin(), touched_.end(), [&](NodeId a, NodeId b) {
    if (cell_of_[a] != cell_of_[b]) return cell_of_[a] < cell_of_[b];
    return count_[a] < count_[b];
  });
  for (std::size_t first = 0; first < touched_.size();) {
    const std::uint32_t start = cell_of_[touched_[first]];
    std::size_t last = first + 1;
    while (last < touched_.size() && cell_of_[touched_[last]] == start) {
      ++last;
    }
    SplitCell(start, first, last);
    first = last;
  }
  for (const NodeId u : touched_) count_[u] = 0;
  touched_.clear();
}

void Refiner::SplitCell(std::uint32_t start, std::size_t first,
                        std::size_t last) {
  const std::uint32_t end = cell_end_[start];
  const auto touched = static_cast<std::uint32_t>(last - first);
  const bool all_touched = touched == end - start;
  if (all_touched &&
      count_[touched_[first]] == count_[touched_[last - 1]]) {
    return;  // one count across the whole cell: nothing to split
  }
  // Fragments by ascending count: the untouched members (count 0) stay at
  // the front, the touched ones move to the tail in sorted order.
  fragments_.clear();
  fragments_.push_back(start);
  std::uint32_t pos = end - touched;
  for (std::size_t i = first; i < last; ++i, ++pos) {
    MoveTo(touched_[i], pos);
    if (pos > start &&
        (i == first || count_[touched_[i]] != count_[touched_[i - 1]])) {
      fragments_.push_back(pos);
    }
  }
  fragments_.push_back(end);

  const bool was_queued = queued_[start] != 0;
  std::size_t largest = 0;  // first fragment of maximal size
  for (std::size_t f = 1; f + 1 < fragments_.size(); ++f) {
    if (fragments_[f + 1] - fragments_[f] >
        fragments_[largest + 1] - fragments_[largest]) {
      largest = f;
    }
  }
  for (std::size_t f = 0; f + 1 < fragments_.size(); ++f) {
    const std::uint32_t begin = fragments_[f];
    cell_end_[begin] = fragments_[f + 1];
    if (f > 0) {
      ++num_cells_;
      for (std::uint32_t p = begin; p < fragments_[f + 1]; ++p) {
        cell_of_[element_[p]] = begin;
      }
    }
    // Hopcroft's rule: a cell already used as a splitter (not queued)
    // needs all its fragments but one, since the largest one's counts
    // follow from the others'. A queued cell's fragments all stay queued.
    if (was_queued ? f > 0 : f != largest) Enqueue(begin);
  }
}

void Refiner::Individualize(NodeId v) {
  const std::uint32_t start = cell_of_[v];
  const std::uint32_t end = cell_end_[start];
  if (end - start == 1) return;
  // Split v off at the cell's end, so the rest keeps its name.
  MoveTo(v, end - 1);
  cell_end_[start] = end - 1;
  cell_end_[end - 1] = end;
  cell_of_[v] = end - 1;
  ++num_cells_;
  Enqueue(end - 1);
  Refine();
}

NodeId Refiner::SmallestInFirstOpenCell() {
  while (first_open_ < n_ && cell_end_[first_open_] == first_open_ + 1) {
    ++first_open_;
  }
  if (first_open_ == n_) return kInvalidNode;
  return *std::min_element(element_.begin() + first_open_,
                           element_.begin() + cell_end_[first_open_]);
}

ColorRefinement Refiner::Colors() const {
  ColorRefinement r;
  r.colors.resize(n_);
  r.num_colors = num_cells_;
  std::uint32_t rank = 0;
  for (std::uint32_t start = 0; start < n_; start = cell_end_[start]) {
    for (std::uint32_t p = start; p < cell_end_[start]; ++p) {
      r.colors[element_[p]] = rank;
    }
    ++rank;
  }
  return r;
}

// Deterministic discrete labeling by individualize-and-refine: starting
// from a stable refiner, repeatedly individualize the smallest-id vertex
// of the first non-singleton cell until every cell is a singleton.
// labels[v] is then a permutation of 0..n-1. Optionally a vertex is
// individualized FIRST (before any tie-breaking), which is how the orbit
// verifier aligns two sides of a candidate automorphism. The labeling
// depends on vertex ids (it is NOT a canonical form); use HashGraph for
// iso-invariant identity.
std::vector<std::uint32_t> DeterministicLabeling(
    Refiner refiner, std::optional<NodeId> individualize_first = {}) {
  if (individualize_first) refiner.Individualize(*individualize_first);
  for (NodeId v = refiner.SmallestInFirstOpenCell(); v != kInvalidNode;
       v = refiner.SmallestInFirstOpenCell()) {
    refiner.Individualize(v);
  }
  return refiner.positions();
}

std::uint64_t Mix(std::uint64_t h, std::uint64_t x) {
  // FNV-1a over the 8 bytes of x.
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

ColorRefinement RefineColors(const Graph& graph) {
  if (graph.num_nodes() == 0) return {};
  return Refiner(graph).Colors();
}

namespace canonical_detail {

// Test seam into the incremental path, declared by its one caller
// (tests/ganalysis_test.cc) rather than in canonical.h: the stable
// coloring after `v`, a vertex of `graph`, is split off into a singleton
// and the partition is refined again.
ColorRefinement RefineIndividualized(const Graph& graph, NodeId v) {
  Refiner refiner(graph);
  refiner.Individualize(v);
  return refiner.Colors();
}

}  // namespace canonical_detail

GraphHash HashGraph(const Graph& graph) {
  const ColorRefinement r = RefineColors(graph);
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = Mix(h, graph.num_nodes());
  h = Mix(h, graph.num_edges());
  h = Mix(h, static_cast<std::uint64_t>(r.num_colors));

  // Stable color histogram: (class size, class weight), in color order —
  // iso-invariant because the color ranks are.
  std::vector<std::uint64_t> class_size(r.num_colors, 0);
  std::vector<std::uint64_t> class_weight(r.num_colors, 0);
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    class_size[r.colors[v]] += 1;
    class_weight[r.colors[v]] += static_cast<std::uint64_t>(graph.weight(v));
  }
  for (std::uint32_t c = 0; c < r.num_colors; ++c) {
    h = Mix(h, class_size[c]);
    h = Mix(h, class_weight[c]);
  }

  // Edge color-pair multiset, sorted.
  std::vector<std::uint64_t> edge_pairs;
  edge_pairs.reserve(graph.num_edges());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    for (NodeId p : graph.parents(v)) {
      edge_pairs.push_back(
          (static_cast<std::uint64_t>(r.colors[p]) << 32) | r.colors[v]);
    }
  }
  std::sort(edge_pairs.begin(), edge_pairs.end());
  for (std::uint64_t e : edge_pairs) h = Mix(h, e);
  return h;
}

bool IsIsomorphismMap(const Graph& a, const Graph& b,
                      const std::vector<NodeId>& map) {
  const NodeId n = a.num_nodes();
  if (b.num_nodes() != n || map.size() != n) return false;
  if (a.num_edges() != b.num_edges()) return false;
  std::vector<unsigned char> hit(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (map[v] >= n || hit[map[v]]) return false;  // not a bijection
    hit[map[v]] = 1;
    if (a.weight(v) != b.weight(map[v])) return false;
  }
  // Parent rows hold no repeats (Build rejects duplicate edges) and the
  // map is injective, so two rows of equal size are equal as sets once
  // every mapped a-parent is in the b-row: stamp the b-row with v, then
  // look each mapped a-parent up.
  std::vector<NodeId> stamp(n, kInvalidNode);
  for (NodeId v = 0; v < n; ++v) {
    const auto pa = a.parents(v);
    const auto pb = b.parents(map[v]);
    if (pa.size() != pb.size()) return false;
    for (const NodeId q : pb) stamp[q] = v;
    for (const NodeId p : pa) {
      if (stamp[map[p]] != v) return false;
    }
  }
  return true;
}

namespace {

// Bijection induced by aligning two discrete labelings: a-vertex with
// label L maps to the b-vertex with label L.
std::optional<std::vector<NodeId>> AlignLabelings(
    const std::vector<std::uint32_t>& la, const std::vector<std::uint32_t>& lb,
    NodeId n) {
  std::vector<NodeId> by_label(n, kInvalidNode);
  for (NodeId v = 0; v < n; ++v) {
    if (lb[v] >= n || by_label[lb[v]] != kInvalidNode) return std::nullopt;
    by_label[lb[v]] = v;
  }
  std::vector<NodeId> map(n, kInvalidNode);
  for (NodeId v = 0; v < n; ++v) {
    if (la[v] >= n) return std::nullopt;
    map[v] = by_label[la[v]];
  }
  return map;
}

}  // namespace

std::vector<std::uint32_t> IsomorphismLabeling(const Graph& graph) {
  if (graph.num_nodes() == 0) return {};
  return DeterministicLabeling(Refiner(graph));
}

std::optional<std::vector<NodeId>> FindIsomorphism(
    const Graph& a, const std::vector<std::uint32_t>& a_labeling,
    const Graph& b) {
  const NodeId n = a.num_nodes();
  if (b.num_nodes() != n || a.num_edges() != b.num_edges() ||
      a_labeling.size() != n) {
    return std::nullopt;
  }
  auto map = AlignLabelings(a_labeling, IsomorphismLabeling(b), n);
  if (!map || !IsIsomorphismMap(a, b, *map)) return std::nullopt;
  return map;
}

std::optional<std::vector<NodeId>> FindIsomorphism(const Graph& a,
                                                   const Graph& b) {
  // Sizes first, so a pair of different sizes costs no labeling.
  if (b.num_nodes() != a.num_nodes() || a.num_edges() != b.num_edges()) {
    return std::nullopt;
  }
  return FindIsomorphism(a, IsomorphismLabeling(a), b);
}

OrbitPartition ComputeOrbits(const Graph& graph) {
  const NodeId n = graph.num_nodes();
  OrbitPartition part;
  part.orbit_of.resize(n);
  std::iota(part.orbit_of.begin(), part.orbit_of.end(), 0);
  if (n == 0) {
    part.num_orbits = 0;
    return part;
  }

  auto find = [&](NodeId v) {
    while (part.orbit_of[v] != v) {
      part.orbit_of[v] = part.orbit_of[part.orbit_of[v]];
      v = part.orbit_of[v];
    }
    return v;
  };
  auto unite = [&](NodeId u, NodeId v) {
    u = find(u);
    v = find(v);
    if (u == v) return;
    if (u > v) std::swap(u, v);
    part.orbit_of[v] = u;  // smaller id becomes the representative
  };

  // Refined once; every individualize-first labeling starts from a copy.
  const Refiner stable(graph);
  const ColorRefinement r = stable.Colors();
  // Candidate pairs: each vertex against its color class representative.
  std::vector<NodeId> rep(r.num_colors, kInvalidNode);
  // Labeling with the representative individualized first, computed
  // lazily once per class.
  std::vector<std::vector<std::uint32_t>> rep_labeling(r.num_colors);
  for (NodeId v = 0; v < n; ++v) {
    const std::uint32_t c = r.colors[v];
    if (rep[c] == kInvalidNode) {
      rep[c] = v;
      continue;
    }
    if (find(v) == find(rep[c])) continue;  // already known equivalent
    if (rep_labeling[c].empty()) {
      rep_labeling[c] = DeterministicLabeling(stable, rep[c]);
    }
    const auto lv = DeterministicLabeling(stable, v);
    auto map = AlignLabelings(rep_labeling[c], lv, n);
    if (map && IsIsomorphismMap(graph, graph, *map)) {
      // The whole verified automorphism is orbit information, not just
      // the (rep, v) pair that motivated it.
      for (NodeId u = 0; u < n; ++u) unite(u, (*map)[u]);
    }
  }

  // Path-compress to the final representatives and count classes.
  std::size_t orbits = 0;
  for (NodeId v = 0; v < n; ++v) {
    part.orbit_of[v] = find(v);
    if (part.orbit_of[v] == v) ++orbits;
  }
  part.num_orbits = orbits;
  return part;
}

}  // namespace wrbpg
