// Streaming-I/O quick-start: the double-buffered host FIFO path end to end.
//
//   1. Host SGD over synthetic CIFAR arriving in chunks: each chunk is
//      generated (streamed ingest), trained on once, and dropped -- the
//      dataset never exists in memory all at once.
//   2. Device-side streamed train-step loop: Repeat(steps, StreamIn(x) ->
//      butterfly stages -> StreamOut(y)) against the same loop over
//      synchronous HostWrite/HostRead. The engine's RunReport shows how
//      much host-link time the FIFOs hide behind compute
//      (overlapped_host_seconds) and the resulting speedup.
//   3. Checkpoint: the trained model's streaming serving plan saved as an
//      ipu::Executable artifact, reloaded, byte-compared against the live
//      executable, and replayed on a fresh replica for logit parity.
//
//   $ ./train_stream [--side 16] [--chunks 4] [--chunk-samples 400]
//                    [--steps 64] [--checkpoint ckpt.ipuexe]
#include <cmath>
#include <cstdio>
#include <string>

#include "core/ipu_lowering.h"
#include "core/method.h"
#include "data/synthetic.h"
#include "ipusim/arch.h"
#include "ipusim/executable.h"
#include "ipusim/session.h"
#include "nn/export.h"
#include "nn/trainer.h"
#include "serve/model_plan.h"
#include "util/cli.h"

using namespace repro;
using ipu::Program;

namespace {

// One Repeat'd butterfly train-step loop, bracketed by either the
// double-buffered stream FIFOs or the synchronous host copies. Timing-only:
// the cycle model is data-independent, so the comparison needs no numerics.
ipu::RunReport TimeStepLoop(const ipu::IpuArch& arch, std::size_t n,
                            std::size_t batch, std::size_t steps,
                            bool streaming) {
  ipu::Session session(arch, ipu::SessionOptions{.execute = false});
  ipu::Graph& g = session.graph();

  ipu::Tensor x = g.addVariable("x", n, batch);
  g.mapLinearly(x, batch);
  Program body = Program::Sequence({});
  body.add(streaming ? Program::StreamIn(x) : Program::HostWrite(x));
  // PopTorch-parity stages write each factor into a fresh staging tensor
  // (the unfused framework form); that also keeps the StreamOut source
  // disjoint from the StreamIn destination, which the compiler's
  // stream-validation pass requires.
  const ipu::Tensor y =
      core::AddButterflyStages(g, body, "", x, /*parity=*/true).y;
  body.add(streaming ? Program::StreamOut(y) : Program::HostRead(y));

  const Status cs = session.compile(Program::Repeat(steps, std::move(body)));
  REPRO_REQUIRE(cs.ok(), "step-loop compile: %s", cs.message().c_str());
  return session.run();
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::size_t side = cli.GetInt("side", 16);
  const std::size_t n = side * side;
  const std::size_t chunks = cli.GetInt("chunks", 4);
  const std::size_t chunk_samples = cli.GetInt("chunk-samples", 400);
  const std::size_t steps = cli.GetInt("steps", 64);
  const std::string ckpt =
      cli.GetString("checkpoint", "train_stream_ckpt.ipuexe");
  const ipu::IpuArch arch = ipu::Gc200();

  // 1. Chunked host training: the data stream is consumed chunk by chunk.
  data::SyntheticConfig dcfg;
  dcfg.image_side = side;
  dcfg.num_samples = 1000;
  dcfg.sample_seed = 99;
  data::Dataset test = data::SyntheticCifar10(dcfg);

  Rng rng(cli.GetInt("seed", 42));
  core::ShlShape shape;
  shape.input = n;
  shape.hidden = n;
  shape.pixelfly = core::ScaledPixelflyConfig(n);
  nn::Sequential model = nn::BuildShl(core::Method::kButterfly, shape, rng);
  std::printf("SHL(%zu -> %zu -> %zu) butterfly, %zu parameters; training on "
              "%zu streamed chunks of %zu samples\n",
              shape.input, shape.hidden, shape.classes, model.paramCount(),
              chunks, chunk_samples);

  nn::TrainConfig tcfg;
  tcfg.epochs = 1;
  for (std::size_t c = 0; c < chunks; ++c) {
    dcfg.num_samples = chunk_samples;
    dcfg.sample_seed = 1 + c;  // each chunk draws fresh samples, then drops
    data::Dataset chunk = data::SyntheticCifar10(dcfg);
    data::StandardizeTogether(chunk, {});
    nn::TrainResult res = nn::Train(model, chunk, test, tcfg);
    std::printf("  chunk %zu/%zu: train loss %.3f, test accuracy %.1f%%\n",
                c + 1, chunks, res.final_train_loss, res.test_accuracy);
  }

  // 2. Streamed vs copied device step loop on the simulated clock.
  const std::size_t batch = cli.GetInt("batch", 32);
  const ipu::RunReport stream = TimeStepLoop(arch, n, batch, steps, true);
  const ipu::RunReport copy = TimeStepLoop(arch, n, batch, steps, false);
  const double s_s = stream.seconds(arch);
  const double c_s = copy.seconds(arch);
  const double link = stream.host_seconds + stream.overlapped_host_seconds;
  std::printf(
      "\ndevice step loop (%zu steps, batch %zu):\n"
      "  host copies : %8.1f us (%.1f us on the host link, all stalled)\n"
      "  stream FIFOs: %8.1f us (%.1f us link time, %.1f us hidden behind "
      "compute = %.0f%%)\n"
      "  speedup: %.2fx\n",
      steps, batch, c_s * 1e6, copy.host_seconds * 1e6, s_s * 1e6, link * 1e6,
      stream.overlapped_host_seconds * 1e6,
      link > 0.0 ? 100.0 * stream.overlapped_host_seconds / link : 0.0,
      c_s / s_s);
  REPRO_REQUIRE(stream.overlapped_host_seconds > 0.0,
                "streaming loop hid no host-link time");
  REPRO_REQUIRE(s_s < c_s, "streaming loop not faster than host copies");

  // 3. Checkpoint the trained model's streaming serving plan and round-trip.
  nn::ForwardSpec spec = nn::ExportForward(model);
  auto plan = serve::ModelPlan::Build(
      spec, arch, serve::PlanOptions{.max_batch = 8});
  REPRO_REQUIRE(plan.ok(), "plan: %s", plan.status().message().c_str());
  const Status saved = plan.value()->SaveExecutable(ckpt);
  REPRO_REQUIRE(saved.ok(), "save: %s", saved.message().c_str());
  StatusOr<ipu::Executable> loaded = ipu::Executable::Load(ckpt);
  REPRO_REQUIRE(loaded.ok(), "reload: %s", loaded.status().message().c_str());
  REPRO_REQUIRE(loaded.value().Serialize() ==
                    plan.value()->executable().Serialize(),
                "checkpoint bytes differ from the live executable");

  auto replica = plan.value()->MakeReplica();
  Matrix xb(4, n);
  Rng data_rng(11);
  for (std::size_t i = 0; i < xb.rows(); ++i)
    for (std::size_t j = 0; j < xb.cols(); ++j)
      xb(i, j) = float(data_rng.Uniform(-1.0, 1.0));
  const Matrix logits = plan.value()->RunBatch(*replica, xb);
  const Matrix& host = model.Forward(xb, /*train=*/false);
  float max_diff = 0.0f;
  for (std::size_t i = 0; i < xb.rows(); ++i)
    for (std::size_t j = 0; j < logits.cols(); ++j)
      max_diff = std::max(max_diff, std::abs(host(i, j) - logits(i, j)));
  REPRO_REQUIRE(max_diff < 1e-3f, "checkpointed plan logits diverge");
  std::printf("\ncheckpoint: %s round-trips byte-identical; replayed batch "
              "matches host forward (max diff %.2e)\n",
              ckpt.c_str(), max_diff);
  return 0;
}
