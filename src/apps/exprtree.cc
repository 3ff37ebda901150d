#include "src/apps/exprtree.h"

#include <cmath>
#include <cstring>


namespace dfil::apps {
namespace {

using core::Cluster;
using core::ClusterConfig;
using core::FjArgs;
using core::FjHandle;
using core::FjResult;
using core::NodeEnv;

double LeafEntry(int64_t leaf, int64_t i, int64_t j) {
  return static_cast<double>((i * 3 + j * 7 + leaf * 11) % 19 - 9) * 0.01;
}

// c = a * b for dim x dim row-major matrices, charging the calibrated per-MAC cost.
void MatMulLocal(NodeEnv& env, const double* a, const double* b, double* c, int dim) {
  for (int i = 0; i < dim; ++i) {
    for (int j = 0; j < dim; ++j) {
      double sum = 0;
      for (int k = 0; k < dim; ++k) {
        sum += a[static_cast<size_t>(i) * dim + k] * b[static_cast<size_t>(k) * dim + j];
      }
      c[static_cast<size_t>(i) * dim + j] = sum;
    }
  }
  env.ChargeWork(env.runtime().costs().tree_mac * dim * dim * dim);
}

struct DfState {
  std::vector<GlobalAddr> matrix;  // heap-indexed matrix base addresses (index 0 unused)
  int dim = 0;
  int leaf_base = 0;  // first leaf heap index (2^height)
};

// Fork/join filament: evaluate the subtree rooted at heap index args.i[0]; the result matrix
// lands at matrix[args.i[0]] and the filament returns that heap index.
FjResult TreeTask(NodeEnv& env, const FjArgs& args) {
  auto* st = static_cast<DfState*>(env.user_ctx);
  const int64_t node = args.i[0];
  if (node >= st->leaf_base) {
    return FjResult{0.0, node};  // leaf: the matrix is already in DSM
  }
  FjArgs left;
  left.i[0] = 2 * node;
  FjArgs right;
  right.i[0] = 2 * node + 1;
  FjHandle hl = env.Fork(&TreeTask, left);
  FjHandle hr = env.Fork(&TreeTask, right);
  const FjResult rl = env.Join(hl);
  const FjResult rr = env.Join(hr);
  const int dim = st->dim;
  const size_t bytes = static_cast<size_t>(dim) * dim * sizeof(double);
  // Page faults migrate the children's matrices here; the write fault claims our result pages.
  const auto* a = reinterpret_cast<const double*>(
      env.AccessBytes(st->matrix[rl.i], bytes, dsm::AccessMode::kRead));
  const auto* b = reinterpret_cast<const double*>(
      env.AccessBytes(st->matrix[rr.i], bytes, dsm::AccessMode::kRead));
  auto* c = reinterpret_cast<double*>(
      env.AccessBytes(st->matrix[node], bytes, dsm::AccessMode::kWrite));
  MatMulLocal(env, a, b, c, dim);
  return FjResult{0.0, node};
}

}  // namespace

AppRun RunExprTreeSeq(const ExprTreeParams& p, const ClusterConfig& base) {
  ClusterConfig cfg = base;
  cfg.nodes = 1;
  Cluster cluster(cfg);
  const int dim = p.matrix_dim;
  const int leaves = 1 << p.height;
  AppRun run;
  run.report = cluster.Run([&](NodeEnv& env) {
    const sim::CostModel& costs = env.runtime().costs();
    const size_t mat = static_cast<size_t>(dim) * dim;
    // Evaluate bottom-up, level by level (same association as the recursive traversal).
    std::vector<std::vector<double>> level(leaves);
    for (int leaf = 0; leaf < leaves; ++leaf) {
      level[leaf].resize(mat);
      for (int i = 0; i < dim; ++i) {
        for (int j = 0; j < dim; ++j) {
          level[leaf][static_cast<size_t>(i) * dim + j] = LeafEntry(leaves + leaf, i, j);
        }
      }
      env.ChargeWork(costs.loop_iter_overhead * dim * dim);
    }
    for (int width = leaves / 2; width >= 1; width /= 2) {
      std::vector<std::vector<double>> next(width);
      for (int q = 0; q < width; ++q) {
        next[q].resize(mat);
        MatMulLocal(env, level[2 * q].data(), level[2 * q + 1].data(), next[q].data(), dim);
      }
      level = std::move(next);
    }
    run.output = level[0];
  });
  for (double x : run.output) {
    run.checksum += x;
  }
  return run;
}

AppRun RunExprTreeCg(const ExprTreeParams& p, const ClusterConfig& base) {
  ClusterConfig cfg = base;
  const int pnodes = cfg.nodes;
  DFIL_CHECK((pnodes & (pnodes - 1)) == 0) << "CG expression tree requires a power-of-two nodes";
  DFIL_CHECK_LE(pnodes, 1 << p.height);
  Cluster cluster(cfg);
  const int dim = p.matrix_dim;
  const int leaves = 1 << p.height;
  AppRun run;
  run.report = cluster.Run([&](NodeEnv& env) {
    const sim::CostModel& costs = env.runtime().costs();
    const size_t mat = static_cast<size_t>(dim) * dim;
    const int k = env.node();
    int m = 0;
    while ((1 << m) < pnodes) {
      ++m;
    }
    // Phase 1: evaluate my subtree (heap root pnodes + k) sequentially.
    const int my_leaves = leaves / pnodes;
    const int first_leaf = leaves + k * my_leaves;  // heap index of my first leaf
    std::vector<std::vector<double>> level(my_leaves);
    for (int q = 0; q < my_leaves; ++q) {
      level[q].resize(mat);
      for (int i = 0; i < dim; ++i) {
        for (int j = 0; j < dim; ++j) {
          level[q][static_cast<size_t>(i) * dim + j] = LeafEntry(first_leaf + q, i, j);
        }
      }
      env.ChargeWork(costs.loop_iter_overhead * dim * dim);
    }
    while (level.size() > 1) {
      std::vector<std::vector<double>> next(level.size() / 2);
      for (size_t q = 0; q < next.size(); ++q) {
        next[q].resize(mat);
        MatMulLocal(env, level[2 * q].data(), level[2 * q + 1].data(), next[q].data(), dim);
      }
      level = std::move(next);
    }
    std::vector<double> mine = std::move(level[0]);

    // Phase 2: combining tree — half the active nodes drop out at each level; a total of p-1
    // result matrices cross the network (the paper counts 2(p-1) messages: header + data).
    for (int l = m - 1; l >= 0; --l) {
      const int stride = 1 << (m - l - 1);  // holder spacing at the child level
      if (k % stride != 0) {
        break;  // already inactive
      }
      const int q_child = k / stride;
      if (q_child % 2 == 1) {
        SendBulk(env, (q_child - 1) * stride, /*tag=*/40 + static_cast<uint32_t>(l),
                 AsBytes(mine));
        break;  // inactive from here up
      }
      std::vector<double> right(mat);
      RecvBulk(env, (q_child + 1) * stride, 40 + static_cast<uint32_t>(l),
               AsWritableBytes(right));
      std::vector<double> product(mat);
      MatMulLocal(env, mine.data(), right.data(), product.data(), dim);
      mine = std::move(product);
    }
    if (k == 0) {
      run.output = mine;
    }
  });
  for (double x : run.output) {
    run.checksum += x;
  }
  return run;
}

AppRun RunExprTreeDf(const ExprTreeParams& p, const ClusterConfig& base) {
  ClusterConfig cfg = base;
  cfg.dsm.pcp = dsm::Pcp::kMigratory;  // the paper's choice for this application
  cfg.wake_at_front = true;
  cfg.fj.steal_enabled = false;  // balanced workload: page acquisition outweighs balancing (§2.3)
  Cluster cluster(cfg);
  const int dim = p.matrix_dim;
  const int leaves = 1 << p.height;
  const int total = 2 * leaves;  // heap size (index 0 unused)
  const size_t bytes = static_cast<size_t>(dim) * dim * sizeof(double);

  std::vector<GlobalAddr> matrix(total);
  for (int node = 1; node < total; ++node) {
    matrix[node] =
        cluster.layout().AllocPadded(bytes, std::string("m").append(std::to_string(node)));
    // Group each matrix's pages: a request for any page fetches the whole matrix.
    const PageId first = cluster.layout().PageOf(matrix[node]);
    const PageId last = cluster.layout().PageOf(matrix[node] + bytes - 1);
    if (last > first) {
      cluster.layout().GroupPages(first, last - first + 1);
    }
  }

  AppRun run;
  std::vector<DfState> states(cfg.nodes);
  run.report = cluster.Run([&](NodeEnv& env) {
    DfState& st = states[env.node()];
    st.matrix = matrix;
    st.dim = dim;
    st.leaf_base = leaves;
    env.user_ctx = &st;
    const sim::CostModel& costs = env.runtime().costs();

    if (env.node() == 0) {
      // The master initializes the leaf matrices (it owns all pages initially).
      for (int leaf = leaves; leaf < total; ++leaf) {
        auto* mdata = reinterpret_cast<double*>(
            env.AccessBytes(matrix[leaf], bytes, dsm::AccessMode::kWrite));
        for (int i = 0; i < dim; ++i) {
          for (int j = 0; j < dim; ++j) {
            mdata[static_cast<size_t>(i) * dim + j] = LeafEntry(leaf, i, j);
          }
        }
        env.ChargeWork(costs.loop_iter_overhead * dim * dim);
      }
    }
    env.Barrier();

    FjArgs args;
    args.i[0] = 1;  // heap root
    env.RunForkJoin(&TreeTask, args);

    if (env.node() == 0) {
      // The root multiply ran on node 0, so this read is local (validation only, uncharged).
      const auto* root = reinterpret_cast<const double*>(
          env.AccessBytes(matrix[1], bytes, dsm::AccessMode::kRead));
      run.output.assign(root, root + static_cast<size_t>(dim) * dim);
    }
  });
  for (double x : run.output) {
    run.checksum += x;
  }
  return run;
}

}  // namespace dfil::apps
