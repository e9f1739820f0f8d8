#include "ann/mlp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

namespace solsched::ann {
namespace {

TEST(Mlp, ConstructionValidation) {
  EXPECT_THROW(Mlp({5}, 1), std::invalid_argument);
  EXPECT_THROW(Mlp({5, 0, 2}, 1), std::invalid_argument);
  const Mlp net({3, 4, 2}, 1);
  EXPECT_EQ(net.n_inputs(), 3u);
  EXPECT_EQ(net.n_outputs(), 2u);
  EXPECT_EQ(net.n_layers(), 2u);
}

TEST(Mlp, ForwardOutputsInUnitInterval) {
  const Mlp net({4, 6, 3}, 2);
  const Vector y = net.forward({0.1, 0.9, 0.5, 0.0});
  ASSERT_EQ(y.size(), 3u);
  for (double v : y) {
    EXPECT_GT(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Mlp, ForwardSizeMismatchThrows) {
  const Mlp net({4, 2}, 2);
  EXPECT_THROW(net.forward({1.0}), std::invalid_argument);
}

TEST(Mlp, LearnsXor) {
  const std::vector<Sample> data = {
      {{0.0, 0.0}, {0.0}},
      {{0.0, 1.0}, {1.0}},
      {{1.0, 0.0}, {1.0}},
      {{1.0, 1.0}, {0.0}},
  };
  Mlp net({2, 8, 1}, 3);
  MlpTrainConfig config;
  config.epochs = 4000;
  config.learning_rate = 0.5;
  config.momentum = 0.9;
  net.train(data, config);
  for (const auto& s : data)
    EXPECT_NEAR(net.forward(s.x)[0], s.y[0], 0.2) << s.x[0] << "," << s.x[1];
}

TEST(Mlp, TrainingReducesLoss) {
  const std::vector<Sample> data = {
      {{0.2, 0.8}, {0.7}},
      {{0.9, 0.1}, {0.2}},
      {{0.5, 0.5}, {0.5}},
  };
  Mlp net({2, 5, 1}, 4);
  const double before = net.evaluate(data);
  MlpTrainConfig config;
  config.epochs = 500;
  net.train(data, config);
  EXPECT_LT(net.evaluate(data), before);
}

TEST(Mlp, GradientMatchesFiniteDifference) {
  // One SGD step with lr ε and no momentum moves the loss consistently with
  // the analytic gradient: verify via the loss decrease on a single sample.
  const Sample s{{0.3, 0.7, 0.1}, {0.8, 0.2}};
  Mlp net({3, 4, 2}, 5);
  MlpTrainConfig config;
  config.epochs = 1;
  config.learning_rate = 1e-3;
  config.momentum = 0.0;
  config.weight_decay = 0.0;
  const double loss0 = net.evaluate({s});
  net.train_epoch({s}, config);
  const double loss1 = net.evaluate({s});
  EXPECT_LT(loss1, loss0);  // A tiny step along -grad must reduce the loss.
  // The decrease is second-order close to lr * ||grad||^2; just check it is
  // small (no wild jump that would indicate a sign error).
  EXPECT_GT(loss1, loss0 - 0.05);
}

TEST(Mlp, DeterministicTraining) {
  const std::vector<Sample> data = {{{0.1, 0.2}, {0.3}}, {{0.8, 0.5}, {0.9}}};
  MlpTrainConfig config;
  config.epochs = 50;
  Mlp a({2, 3, 1}, 9), b({2, 3, 1}, 9);
  a.train(data, config);
  b.train(data, config);
  EXPECT_DOUBLE_EQ(a.forward({0.4, 0.4})[0], b.forward({0.4, 0.4})[0]);
}

TEST(Mlp, SetLayerValidatesShape) {
  Mlp net({2, 3, 1}, 6);
  EXPECT_THROW(net.set_layer(5, Matrix(3, 2), Vector(3)), std::out_of_range);
  EXPECT_THROW(net.set_layer(0, Matrix(2, 2), Vector(3)),
               std::invalid_argument);
  EXPECT_NO_THROW(net.set_layer(0, Matrix(3, 2), Vector(3, 0.0)));
}

TEST(Mlp, SerializeRoundTrip) {
  Mlp net({3, 5, 2}, 7);
  const std::string blob = net.serialize();
  const Mlp copy = Mlp::deserialize(blob);
  const Vector x{0.1, 0.5, 0.9};
  const Vector y1 = net.forward(x);
  const Vector y2 = copy.forward(x);
  ASSERT_EQ(y1.size(), y2.size());
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_DOUBLE_EQ(y1[i], y2[i]);
}

TEST(Mlp, DeserializeRejectsGarbage) {
  EXPECT_THROW(Mlp::deserialize("bogus"), std::invalid_argument);
  EXPECT_THROW(Mlp::deserialize("mlp 2\n3 2\n1 2"), std::invalid_argument);
}

/// The message of the std::invalid_argument `text` is rejected with.
std::string deserialize_error(const std::string& text) {
  try {
    Mlp::deserialize(text);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "accepted";
}

TEST(Mlp, DeserializeRejectsTrailingData) {
  const std::string blob = Mlp({3, 5, 2}, 7).serialize();
  EXPECT_NO_THROW(Mlp::deserialize(blob + " \n\t\n"));
  const std::string error = deserialize_error(blob + "0.5\n");
  EXPECT_NE(error.find("trailing data after the last bias: '0.5'"),
            std::string::npos)
      << error;
  EXPECT_NE(deserialize_error(blob + "garbage").find("'garbage'"),
            std::string::npos);
}

TEST(Mlp, DeserializeNamesTheBadParameter) {
  // Layer 0 of a 2-3-1 net has 6 weights then 3 biases; layer 1 has 3
  // weights then 1 bias.
  const std::string head = "mlp 3\n2 3 1\n";
  const std::string w0 = "0.1 0.2 0.3 0.4 0.5 0.6\n";
  const std::string b0 = "0.1 0.2 0.3\n";
  EXPECT_NO_THROW(Mlp::deserialize(head + w0 + b0 + "1 +2 3\n-0.5\n"));
  EXPECT_EQ(deserialize_error(head + "0.1 0.2 nan 0.4 0.5 0.6\n" + b0 +
                              "1 2 3\n0\n"),
            "Mlp::deserialize: non-finite weight 2 of layer 0: 'nan'");
  EXPECT_EQ(deserialize_error(head + w0 + b0 + "1 2 3\n-inf\n"),
            "Mlp::deserialize: non-finite bias 0 of layer 1: '-inf'");
  EXPECT_EQ(deserialize_error(head + w0 + b0 + "1 2x 3\n0\n"),
            "Mlp::deserialize: unparseable weight 1 of layer 1: '2x'");
  EXPECT_EQ(deserialize_error(head + w0 + "0.1 0.2"),
            "Mlp::deserialize: truncated biases (missing bias 2 of layer 0)");
}

TEST(Mlp, EmptySampleSetIsNoop) {
  Mlp net({2, 2}, 8);
  MlpTrainConfig config;
  EXPECT_DOUBLE_EQ(net.train_epoch({}, config), 0.0);
  EXPECT_DOUBLE_EQ(net.evaluate({}), 0.0);
}

}  // namespace
}  // namespace solsched::ann
