// Gradient-boosted regression trees — the XGBoost substitute.
//
// AutoTVM fits an XGBoost cost model over measured configurations and uses
// it to rank unexplored candidates. This is a from-scratch reimplementation
// of the same idea: depth-limited CART regression trees boosted on the
// squared-error gradient (which for L2 loss is just fitting residuals),
// with shrinkage. Features are the fixed-size candidate vectors of
// tune::features().
#pragma once

#include <array>
#include <cstddef>
#include <vector>

namespace autogemm::tune {

inline constexpr std::size_t kFeatureCount = 8;
using FeatureVec = std::array<double, kFeatureCount>;

struct GbtParams {
  int rounds = 50;        ///< boosting rounds (trees)
  int max_depth = 3;      ///< per-tree depth
  double shrinkage = 0.3; ///< learning rate
  int min_samples = 4;    ///< minimum samples to split a node
};

class GbtModel {
 public:
  explicit GbtModel(GbtParams params = {}) : params_(params) {}

  /// Fits targets (e.g. measured cycles) to features. Re-fitting replaces
  /// the previous ensemble.
  void fit(const std::vector<FeatureVec>& x, const std::vector<double>& y);

  double predict(const FeatureVec& x) const;

  /// Mean squared error on a dataset (training diagnostics).
  double mse(const std::vector<FeatureVec>& x,
             const std::vector<double>& y) const;

  bool trained() const { return !trees_.empty(); }

 private:
  struct Node {
    int feature = -1;      // -1 = leaf
    double threshold = 0;
    double value = 0;      // leaf prediction
    int left = -1, right = -1;
  };
  struct Tree {
    std::vector<Node> nodes;
    double eval(const FeatureVec& x) const;
  };

  Tree build_tree(const std::vector<FeatureVec>& x,
                  const std::vector<double>& residual,
                  std::vector<int>& index, int begin, int end, int depth);

  GbtParams params_;
  double base_ = 0;
  std::vector<Tree> trees_;
};

}  // namespace autogemm::tune
