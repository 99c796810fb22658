#include "schedulers/layer_by_layer.h"

namespace wrbpg {
namespace {

// Layers 1.. in index order; with `alternate`, S_2 ascends and the
// direction flips per layer.
std::vector<NodeId> LayerOrder(const std::vector<std::vector<NodeId>>& layers,
                               bool alternate) {
  std::vector<NodeId> order;
  for (std::size_t li = 1; li < layers.size(); ++li) {
    const auto& layer = layers[li];
    if (alternate && li % 2 == 0) {
      order.insert(order.end(), layer.rbegin(), layer.rend());
    } else {
      order.insert(order.end(), layer.begin(), layer.end());
    }
  }
  return order;
}

}  // namespace

LayerByLayerScheduler::LayerByLayerScheduler(
    const Graph& graph, const std::vector<std::vector<NodeId>>& layers,
    bool alternate)
    : EvictionScheduler(graph, LayerOrder(layers, alternate),
                        Rule::kFirstPlaced) {}

}  // namespace wrbpg
