#include "baselines/dominant_graph.h"

namespace drli {

DualLayerOptions DominantGraphConfig(bool zero_layer) {
  DualLayerOptions options;
  options.enable_fine_layers = false;
  options.build_zero_layer = zero_layer;
  options.zero_layer_fine_split = false;
  options.name = zero_layer ? "DG+" : "DG";
  return options;
}

}  // namespace drli
