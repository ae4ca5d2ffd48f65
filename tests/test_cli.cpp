// End-to-end CLI flows through gbmo::cli::run — the same code path the gbmo
// binary executes, driven with temp files.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "cli.h"
#include "sim/faults.h"

namespace gbmo::cli {
namespace {

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult run_cli(std::initializer_list<std::string> args) {
  std::ostringstream out, err;
  const int code = run(std::vector<std::string>(args), out, err);
  return {code, out.str(), err.str()};
}

// Per-test file names: ctest runs the CLI tests as parallel processes, and a
// shared path lets one test regenerate a file another is still reading.
std::string tmp_path(const char* name) {
  return std::string("/tmp/gbmo_cli_test_") +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "_" + name;
}

class CliFlow : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto gen = run_cli({"generate", "--task", "multiclass", "--n", "400",
                              "--m", "8", "--d", "3", "--seed", "9", "--out",
                              tmp_path("data.csv")});
    ASSERT_EQ(gen.code, 0) << gen.err;
  }
};

TEST_F(CliFlow, TrainEvaluatePredictInfoImportance) {
  const auto train = run_cli({"train", "--data", tmp_path("data.csv"),
                              "--features", "8", "--model", tmp_path("m.model"),
                              "--trees", "10", "--depth", "4", "--lr", "0.5",
                              "--bins", "32"});
  ASSERT_EQ(train.code, 0) << train.err;
  EXPECT_NE(train.out.find("model saved"), std::string::npos);
  EXPECT_NE(train.out.find("histogram fraction"), std::string::npos);

  const auto eval = run_cli({"evaluate", "--model", tmp_path("m.model"),
                             "--data", tmp_path("data.csv"), "--features", "8"});
  ASSERT_EQ(eval.code, 0) << eval.err;
  EXPECT_NE(eval.out.find("accuracy%"), std::string::npos);

  const auto predict = run_cli({"predict", "--model", tmp_path("m.model"),
                                "--data", tmp_path("data.csv"), "--features",
                                "8", "--out", tmp_path("scores.csv")});
  ASSERT_EQ(predict.code, 0) << predict.err;
  std::ifstream scores(tmp_path("scores.csv"));
  std::string line;
  std::size_t lines = 0;
  while (std::getline(scores, line)) {
    ++lines;
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), 2);  // 3 outputs
  }
  EXPECT_EQ(lines, 400u);

  const auto info = run_cli({"info", "--model", tmp_path("m.model")});
  ASSERT_EQ(info.code, 0) << info.err;
  EXPECT_NE(info.out.find("trees:       10"), std::string::npos);
  EXPECT_EQ(info.out.find("max depth:   0"), std::string::npos);

  const auto imp = run_cli({"importance", "--model", tmp_path("m.model"),
                            "--top", "3"});
  ASSERT_EQ(imp.code, 0) << imp.err;
  EXPECT_NE(imp.out.find("feature "), std::string::npos);
}

TEST_F(CliFlow, ServeRoutesMixedTrafficAcrossModels) {
  const auto t1 = run_cli({"train", "--data", tmp_path("data.csv"),
                           "--features", "8", "--model", tmp_path("sa.model"),
                           "--trees", "6", "--depth", "4", "--bins", "32"});
  ASSERT_EQ(t1.code, 0) << t1.err;
  const auto t2 = run_cli({"train", "--data", tmp_path("data.csv"),
                           "--features", "8", "--model", tmp_path("sb.model"),
                           "--trees", "9", "--depth", "3", "--bins", "32"});
  ASSERT_EQ(t2.code, 0) << t2.err;

  const auto serve = run_cli(
      {"serve", "--models",
       "alpha=" + tmp_path("sa.model") + ",beta=" + tmp_path("sb.model"),
       "--data", tmp_path("data.csv"), "--features", "8", "--batch", "32",
       "--delay-ms", "0.2", "--rounds", "2"});
  ASSERT_EQ(serve.code, 0) << serve.err;
  // Both tenants show up in the SLO table with the percentile columns.
  EXPECT_NE(serve.out.find("alpha"), std::string::npos);
  EXPECT_NE(serve.out.find("beta"), std::string::npos);
  EXPECT_NE(serve.out.find("p50 ms"), std::string::npos);
  EXPECT_NE(serve.out.find("p99 ms"), std::string::npos);
  // 400 rows x 2 rounds x 2 models, none rejected or failed.
  EXPECT_NE(serve.out.find("served 1600 requests across 2 models"),
            std::string::npos);
  EXPECT_NE(serve.out.find("0 rejected, 0 failed"), std::string::npos);

  const auto bad = run_cli({"serve", "--models", "broken-entry", "--data",
                            tmp_path("data.csv"), "--features", "8"});
  EXPECT_EQ(bad.code, 1);
  EXPECT_NE(bad.err.find("name=path"), std::string::npos);
}

TEST_F(CliFlow, TrainWithValidationAndEarlyStop) {
  const auto gen = run_cli({"generate", "--task", "multiclass", "--n", "150",
                            "--m", "8", "--d", "3", "--seed", "10", "--out",
                            tmp_path("valid.csv")});
  ASSERT_EQ(gen.code, 0);
  const auto train = run_cli(
      {"train", "--data", tmp_path("data.csv"), "--features", "8", "--model",
       tmp_path("es.model"), "--trees", "50", "--lr", "0.8", "--bins", "32",
       "--valid", tmp_path("valid.csv"), "--early-stop", "3"});
  ASSERT_EQ(train.code, 0) << train.err;
  EXPECT_NE(train.out.find("valid accuracy%"), std::string::npos);
}

TEST(CliErrors, UnknownCommandAndMissingOptions) {
  const auto bad = run_cli({"frobnicate"});
  EXPECT_EQ(bad.code, 2);
  EXPECT_NE(bad.err.find("unknown command"), std::string::npos);

  const auto missing = run_cli({"train", "--features", "8"});
  EXPECT_EQ(missing.code, 1);
  EXPECT_NE(missing.err.find("--data"), std::string::npos);

  const auto unknown_opt = run_cli({"info", "--model", "/nonexistent",
                                    "--bogus", "1"});
  EXPECT_EQ(unknown_opt.code, 1);

  const auto help = run_cli({"--help"});
  EXPECT_EQ(help.code, 0);
  EXPECT_NE(help.out.find("usage"), std::string::npos);

  // --help after a command prints the usage too, whether or not the
  // command's required options are given.
  for (const auto& args :
       {std::vector<std::string>{"train", "--help"},
        std::vector<std::string>{"generate", "--help"},
        std::vector<std::string>{"train", "--data", "d.csv", "--features", "8",
                                 "--model", "m.model", "--help"}}) {
    std::ostringstream out, err;
    EXPECT_EQ(run(args, out, err), 0) << args[0] << ": " << err.str();
    EXPECT_NE(out.str().find("usage"), std::string::npos) << args[0];
  }
}

// A numeric option parses whole or fails with a message naming the option
// and the value; a prefix such as "10x" is never read as 10.
TEST(CliErrors, RejectsMalformedNumbers) {
  const std::string train_opts[] = {"--data", "d.csv", "--features", "8",
                                    "--model", "m.model"};
  const struct {
    std::vector<std::string> args;
    std::string option;
    std::string value;
  } cases[] = {
      {{"generate", "--task", "multiclass", "--n", "10x", "--out", "g.csv"},
       "--n", "10x"},
      {{"train", "--lr", "0.5x"}, "--lr", "0.5x"},
      {{"train", "--trees", "abc"}, "--trees", "abc"},
      {{"train", "--max-device-mb", "99999999999999999999"},
       "--max-device-mb", "99999999999999999999"},
      {{"train", "--goss", "0.2,0.1x"}, "--goss", "0.1x"},
      {{"train", "--cat-cols", "0,3x"}, "--cat-cols", "3x"},
      {{"train", "--sim-faults", "kill=x@1"}, "kill device", "x"},
      {{"train", "--sim-faults", "transient=abc"}, "transient", "abc"},
  };
  for (const auto& c : cases) {
    auto args = c.args;
    if (args[0] == "train") args.insert(args.end(), std::begin(train_opts),
                                        std::end(train_opts));
    std::ostringstream out, err;
    EXPECT_EQ(run(args, out, err), 1) << c.value;
    EXPECT_NE(err.str().find(c.option), std::string::npos) << err.str();
    EXPECT_NE(err.str().find("'" + c.value + "'"), std::string::npos)
        << err.str();
  }
}

// A CSV header names its task and output count, so --task and --outputs
// are optional with CSV; when given they must agree with the header.
TEST(CliErrors, CsvTaskAndOutputsMustMatchHeader) {
  const auto data = tmp_path("mr.csv");
  ASSERT_EQ(run_cli({"generate", "--task", "multiregress", "--n", "60", "--m",
                     "16", "--d", "6", "--out", data})
                .code,
            0);
  const auto train = [&](std::initializer_list<std::string> extra) {
    std::vector<std::string> args = {"train",   "--data", data,
                                     "--features", "16",  "--model",
                                     tmp_path("m.model"), "--trees", "2"};
    args.insert(args.end(), extra);
    std::ostringstream out, err;
    const int code = run(args, out, err);
    return CliResult{code, out.str(), err.str()};
  };
  const auto agree = train({"--task", "multiregress", "--outputs", "6"});
  EXPECT_EQ(agree.code, 0) << agree.err;
  const auto outputs = train({"--task", "multiregress", "--outputs", "5"});
  EXPECT_EQ(outputs.code, 1);
  EXPECT_NE(outputs.err.find("--outputs 5"), std::string::npos) << outputs.err;
  EXPECT_NE(outputs.err.find("says 6"), std::string::npos) << outputs.err;
  const auto task = train({"--task", "multiclass"});
  EXPECT_EQ(task.code, 1);
  EXPECT_NE(task.err.find("--task multiclass"), std::string::npos) << task.err;
  EXPECT_NE(task.err.find("says multiregress"), std::string::npos) << task.err;
  const auto eval = run_cli({"evaluate", "--model", tmp_path("m.model"),
                             "--data", data, "--features", "16", "--task",
                             "multiregress", "--outputs", "6"});
  EXPECT_EQ(eval.code, 0) << eval.err;

  // One feature short: the ragged-row error names the expected count.
  const auto ragged = run_cli({"train", "--data", data, "--features", "15",
                               "--model", tmp_path("r.model")});
  EXPECT_EQ(ragged.code, 1);
  EXPECT_NE(ragged.err.find("15 features + 6 label cells"), std::string::npos)
      << ragged.err;
}

TEST(CliErrors, ModelLoadFailureExitsNonzeroWithClearMessage) {
  // Missing file: nonzero exit, message names the path and the problem.
  const auto missing = run_cli({"info", "--model", tmp_path("never_written")});
  EXPECT_EQ(missing.code, 1);
  EXPECT_NE(missing.err.find("cannot open model file"), std::string::npos);
  EXPECT_NE(missing.err.find(tmp_path("never_written")), std::string::npos);

  // Present but not a model: nonzero exit, parse failure names the file.
  const auto garbage_path = tmp_path("garbage.model");
  {
    std::ofstream os(garbage_path);
    os << "this is not a model\n";
  }
  const auto garbage = run_cli({"evaluate", "--model", garbage_path, "--data",
                                tmp_path("data.csv"), "--features", "8"});
  EXPECT_EQ(garbage.code, 1);
  EXPECT_NE(garbage.err.find("failed to load model"), std::string::npos);
  EXPECT_NE(garbage.err.find("not a gbmo model file"), std::string::npos);
  std::remove(garbage_path.c_str());
}

TEST(CliBench, RunsNamedReplica) {
  const auto bench = run_cli({"bench", "--dataset", "RF1", "--system", "ours",
                              "--trees", "3", "--bins", "32"});
  ASSERT_EQ(bench.code, 0) << bench.err;
  EXPECT_NE(bench.out.find("modeled device time"), std::string::npos);
  EXPECT_NE(bench.out.find("test rmse"), std::string::npos);
}

TEST(CliGenerate, LibsvmFormatRoundTrips) {
  const auto gen = run_cli({"generate", "--task", "multiregress", "--n", "100",
                            "--m", "6", "--d", "2", "--sparsity", "0.5",
                            "--format", "libsvm", "--out", tmp_path("r.svm")});
  ASSERT_EQ(gen.code, 0) << gen.err;
  const auto train = run_cli({"train", "--data", tmp_path("r.svm"), "--format",
                              "libsvm", "--task", "multiregress", "--outputs",
                              "2", "--features", "6", "--model",
                              tmp_path("r.model"), "--trees", "5", "--bins",
                              "16"});
  ASSERT_EQ(train.code, 0) << train.err;
  EXPECT_NE(train.out.find("train rmse"), std::string::npos);
}

// Sparse multilabel data has rows with no active label; their libsvm lines
// start with a feature pair and must still load and train.
TEST(CliGenerate, MultilabelLibsvmTrains) {
  const auto gen = run_cli({"generate", "--task", "multilabel", "--format",
                            "libsvm", "--n", "1500", "--m", "16", "--d", "6",
                            "--sparsity", "0.6", "--seed", "14", "--out",
                            tmp_path("ml.svm")});
  ASSERT_EQ(gen.code, 0) << gen.err;
  const auto train = run_cli({"train", "--data", tmp_path("ml.svm"),
                              "--format", "libsvm", "--task", "multilabel",
                              "--outputs", "6", "--features", "16", "--model",
                              tmp_path("ml.model"), "--trees", "4", "--bins",
                              "32"});
  ASSERT_EQ(train.code, 0) << train.err;
  EXPECT_NE(train.out.find("trained on 1500 x 16"), std::string::npos)
      << train.out;
}

// A device lost to a kill= fault is reported; a clean run prints no such
// line. Training fails over to the survivor either way.
TEST(CliFaults, ReportsLostDevices) {
  const auto gen = run_cli({"generate", "--task", "multiclass", "--n", "3000",
                            "--m", "20", "--d", "5", "--sparsity", "0.5",
                            "--seed", "11", "--out", tmp_path("data.csv")});
  ASSERT_EQ(gen.code, 0) << gen.err;
  const auto train = [&](std::vector<std::string> extra) {
    std::vector<std::string> args = {
        "train",  "--data", tmp_path("data.csv"), "--features", "20",
        "--model", tmp_path("m.model"), "--trees", "6", "--depth", "5",
        "--bins", "32", "--devices", "2", "--mgpu", "feature"};
    args.insert(args.end(), extra.begin(), extra.end());
    std::ostringstream out, err;
    const int code = run(args, out, err);
    sim::reset_sim_faults();  // --sim-faults arms the plan process-wide
    return CliResult{code, out.str(), err.str()};
  };
  const auto clean = train({});
  ASSERT_EQ(clean.code, 0) << clean.err;
  EXPECT_EQ(clean.out.find("devices lost"), std::string::npos) << clean.out;
  const auto killed = train({"--sim-faults", "kill=1@40"});
  ASSERT_EQ(killed.code, 0) << killed.err;
  EXPECT_NE(killed.out.find("devices lost: 1 of 2 (training failed over to "
                            "the survivors)"),
            std::string::npos)
      << killed.out;
}

}  // namespace
}  // namespace gbmo::cli
