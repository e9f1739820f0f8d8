#include "ann/rbm.hpp"

#include <algorithm>
#include <stdexcept>

#include "ann/kernels/kernels.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace solsched::ann {

Rbm::Rbm(std::size_t n_visible, std::size_t n_hidden, std::uint64_t seed)
    : rng_(seed) {
  if (n_visible == 0 || n_hidden == 0)
    throw std::invalid_argument("Rbm: layer sizes must be positive");
  weights_ = Matrix::randn(n_hidden, n_visible, rng_, 0.1);
  hidden_bias_.assign(n_hidden, 0.0);
  visible_bias_.assign(n_visible, 0.0);
  momentum_w_ = Matrix(n_hidden, n_visible);
  momentum_h_.assign(n_hidden, 0.0);
  momentum_v_.assign(n_visible, 0.0);
}

Vector Rbm::hidden_probs(const Vector& visible) const {
  Vector h = weights_.multiply(visible);
  add_inplace(h, hidden_bias_);
  sigmoid_inplace(h);
  return h;
}

Vector Rbm::visible_probs(const Vector& hidden) const {
  Vector v = weights_.multiply_transposed(hidden);
  add_inplace(v, visible_bias_);
  sigmoid_inplace(v);
  return v;
}

double Rbm::train_epoch(const std::vector<Vector>& data,
                        const RbmTrainConfig& config) {
  if (data.empty()) return 0.0;
  double err_acc = 0.0;
  const auto order = rng_.permutation(data.size());

  if (config.batch_size > 1)
    return train_epoch_minibatch(data, config, order);

  // Phase buffers live across the epoch; the CD-1 weight step is one
  // fused pass (momentum_update2). RNG consumption is one permutation plus
  // one Bernoulli draw per hidden unit per sample.
  Vector h0_probs;
  Vector h0;
  Vector v1;
  Vector h1_probs;
  for (std::size_t idx : order) {
    const Vector& v0 = data[idx];
    if (v0.size() != n_visible())
      throw std::invalid_argument("Rbm::train_epoch: sample size mismatch");

    // Positive phase.
    weights_.multiply_into(v0, h0_probs);
    add_inplace(h0_probs, hidden_bias_);
    sigmoid_inplace(h0_probs);
    if (config.sample_hidden) {
      h0.assign(h0_probs.size(), 0.0);
      for (std::size_t i = 0; i < h0_probs.size(); ++i)
        h0[i] = rng_.bernoulli(h0_probs[i]) ? 1.0 : 0.0;
    }
    const Vector& h0_state = config.sample_hidden ? h0 : h0_probs;

    // Negative phase (one Gibbs step, probabilities for the statistics).
    weights_.multiply_transposed_into(h0_state, v1);
    add_inplace(v1, visible_bias_);
    sigmoid_inplace(v1);
    weights_.multiply_into(v1, h1_probs);
    add_inplace(h1_probs, hidden_bias_);
    sigmoid_inplace(h1_probs);

    momentum_update2(weights_, momentum_w_, h0_probs, v0, h1_probs, v1,
                     config.momentum, config.learning_rate,
                     -config.weight_decay);

    kernels::bias_momentum2_n(hidden_bias_.data(), momentum_h_.data(),
                              h0_probs.data(), h1_probs.data(),
                              config.momentum, config.learning_rate,
                              n_hidden());
    kernels::bias_momentum2_n(visible_bias_.data(), momentum_v_.data(),
                              v0.data(), v1.data(), config.momentum,
                              config.learning_rate, n_visible());

    err_acc += mse(v0, v1);
  }
  OBS_COUNTER_ADD("ann.kernel.gemv", data.size() * 2);
  OBS_COUNTER_ADD("ann.kernel.gemv_t", data.size());
  OBS_COUNTER_ADD("ann.kernel.sigmoid", data.size() * 3);
  OBS_COUNTER_ADD("ann.kernel.momentum", data.size());
  return err_acc / static_cast<double>(data.size());
}

double Rbm::train_epoch_minibatch(const std::vector<Vector>& data,
                                  const RbmTrainConfig& config,
                                  const std::vector<std::size_t>& order) {
  // Minibatch CD-1: the Gibbs phases of a whole chunk run as batch GEMM
  // passes against frozen weights, hidden-state Bernoulli draws consume the
  // RNG in (sample, unit) order — the same stream order the per-sample path
  // uses — and the averaged CD statistics apply in one momentum step per
  // chunk. Everything routes through the kernel layer, so the result is
  // identical across scalar and SIMD builds.
  const std::size_t nv = n_visible();
  const std::size_t nh = n_hidden();
  double err_acc = 0.0;

  Matrix grad(nh, nv);
  Vector grad_h;
  Vector grad_v;

  for (std::size_t start = 0; start < order.size();
       start += config.batch_size) {
    const std::size_t b = std::min(config.batch_size, order.size() - start);

    kernels::BatchMatrix v0(b, nv);
    for (std::size_t s = 0; s < b; ++s) {
      const Vector& x = data[order[start + s]];
      if (x.size() != nv)
        throw std::invalid_argument("Rbm::train_epoch: sample size mismatch");
      v0.set_row(s, x);
    }

    // Positive phase (batched).
    kernels::BatchMatrix h0_probs(b, nh);
    kernels::gemm_batch(weights_.data().data(), nh, nv, v0.data(), b, v0.ld(),
                        h0_probs.data(), h0_probs.ld());
    for (std::size_t s = 0; s < b; ++s) {
      double* row = h0_probs.row(s);
      kernels::add_n(row, hidden_bias_.data(), nh);
      kernels::sigmoid_n(row, nh);
    }
    kernels::BatchMatrix h0_state(b, nh);
    if (config.sample_hidden) {
      for (std::size_t s = 0; s < b; ++s) {
        const double* p = h0_probs.row(s);
        double* h = h0_state.row(s);
        for (std::size_t i = 0; i < nh; ++i)
          h[i] = rng_.bernoulli(p[i]) ? 1.0 : 0.0;
      }
    }
    const kernels::BatchMatrix& h0 =
        config.sample_hidden ? h0_state : h0_probs;

    // Negative phase (one Gibbs step, probabilities for the statistics).
    kernels::BatchMatrix v1(b, nv);
    for (std::size_t s = 0; s < b; ++s) {
      double* row = v1.row(s);
      kernels::gemv_t_acc(weights_.data().data(), nh, nv, h0.row(s), row);
      kernels::add_n(row, visible_bias_.data(), nv);
      kernels::sigmoid_n(row, nv);
    }
    kernels::BatchMatrix h1_probs(b, nh);
    kernels::gemm_batch(weights_.data().data(), nh, nv, v1.data(), b, v1.ld(),
                        h1_probs.data(), h1_probs.ld());
    for (std::size_t s = 0; s < b; ++s) {
      double* row = h1_probs.row(s);
      kernels::add_n(row, hidden_bias_.data(), nh);
      kernels::sigmoid_n(row, nh);
    }

    // Averaged CD statistics, accumulated in sample order.
    const double inv_b = 1.0 / static_cast<double>(b);
    grad.scale(0.0);
    for (std::size_t s = 0; s < b; ++s) {
      kernels::outer_acc_n(grad.data().data(), h0_probs.row(s), v0.row(s),
                           1.0, nh, nv);
      kernels::outer_acc_n(grad.data().data(), h1_probs.row(s), v1.row(s),
                           -1.0, nh, nv);
    }
    momentum_w_.scale(config.momentum);
    momentum_w_.add_scaled(grad, config.learning_rate * inv_b);
    momentum_w_.add_scaled(weights_, -config.learning_rate *
                                         config.weight_decay);
    weights_.add_scaled(momentum_w_, 1.0);

    grad_h.assign(nh, 0.0);
    grad_v.assign(nv, 0.0);
    for (std::size_t s = 0; s < b; ++s) {
      kernels::axpy_n(grad_h.data(), h0_probs.row(s), 1.0, nh);
      kernels::axpy_n(grad_h.data(), h1_probs.row(s), -1.0, nh);
      kernels::axpy_n(grad_v.data(), v0.row(s), 1.0, nv);
      kernels::axpy_n(grad_v.data(), v1.row(s), -1.0, nv);
    }
    for (std::size_t i = 0; i < nh; ++i) {
      momentum_h_[i] = config.momentum * momentum_h_[i] +
                       config.learning_rate * inv_b * grad_h[i];
      hidden_bias_[i] += momentum_h_[i];
    }
    for (std::size_t i = 0; i < nv; ++i) {
      momentum_v_[i] = config.momentum * momentum_v_[i] +
                       config.learning_rate * inv_b * grad_v[i];
      visible_bias_[i] += momentum_v_[i];
    }

    for (std::size_t s = 0; s < b; ++s) {
      const double* a = v0.row(s);
      const double* c = v1.row(s);
      double acc = 0.0;
      for (std::size_t i = 0; i < nv; ++i) {
        const double d = a[i] - c[i];
        acc += d * d;
      }
      err_acc += acc / static_cast<double>(nv);
    }
  }
  OBS_COUNTER_ADD("ann.kernel.gemm_batch",
                  2 * ((order.size() + config.batch_size - 1) /
                       config.batch_size));
  return err_acc / static_cast<double>(data.size());
}

double Rbm::train(const std::vector<Vector>& data,
                  const RbmTrainConfig& config) {
  double err = 0.0;
  for (std::size_t e = 0; e < config.epochs; ++e)
    err = train_epoch(data, config);
  return err;
}

double Rbm::reconstruction_mse(const std::vector<Vector>& data) const {
  if (data.empty()) return 0.0;
  // Independent reconstructions: per-index slots in parallel, serial sum
  // in data order (deterministic at any thread count).
  std::vector<double> errs(data.size());
  util::parallel_for(data.size(), [&](std::size_t i) {
    errs[i] = mse(data[i], visible_probs(hidden_probs(data[i])));
  });
  double acc = 0.0;
  for (double e : errs) acc += e;
  return acc / static_cast<double>(data.size());
}

}  // namespace solsched::ann
