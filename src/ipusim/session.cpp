#include "ipusim/session.h"

#include <utility>

#include "ipusim/compiler.h"
#include "ipusim/exe_cache.h"

namespace repro::ipu {

namespace {
// More threads than this is certainly a unit mix-up (bytes, elements), not a
// real concurrency request.
constexpr std::size_t kMaxHostThreads = 1024;
}  // namespace

Status SessionOptions::Validate() const {
  if (host_threads > kMaxHostThreads) {
    return Status::InvalidArgument(
        "SessionOptions::host_threads " + std::to_string(host_threads) +
        " exceeds the sanity limit of " + std::to_string(kMaxHostThreads));
  }
  if (execute && allow_oversubscription) {
    // An oversubscribed graph has no valid on-device placement; executing
    // arithmetic against it would fabricate results a real device cannot
    // produce. Memory studies that oversubscribe are timing-only.
    return Status::InvalidArgument(
        "SessionOptions::allow_oversubscription requires execute = false "
        "(oversubscribed graphs are memory studies, not runnable programs)");
  }
  if (!execute && host_threads > 0) {
    // Timing-only runs never touch tensor storage, so host threads cannot
    // change anything; a nonzero count is a sign the caller mixed up the
    // timing-only and executing configurations.
    return Status::InvalidArgument(
        "SessionOptions::host_threads set on a timing-only session "
        "(execute = false runs are serial by construction)");
  }
  return Status::Ok();
}

Session::Session(const IpuArch& arch, SessionOptions opts)
    : graph_(arch), opts_(opts) {
  REPRO_REQUIRE(opts_.Validate().ok(), "invalid SessionOptions: %s",
                opts_.Validate().message().c_str());
}

Status Session::compile(Program program) {
  REPRO_REQUIRE(!engine_.has_value(),
                "Session::compile called twice; one compile per session");
  if (opts_.cache != nullptr) {
    StatusOr<std::shared_ptr<const Executable>> exe =
        opts_.cache->GetOrCompile(graph_, program, opts_.compileOptions());
    if (!exe.ok()) return exe.status();
    engine_.emplace(Engine::Internal{}, exe.take(), opts_.engineOptions());
    return Status::Ok();
  }
  StatusOr<Executable> exe =
      Compile(graph_, std::move(program), opts_.compileOptions());
  if (!exe.ok()) return exe.status();
  engine_.emplace(Engine::Internal{}, exe.take(), opts_.engineOptions());
  return Status::Ok();
}

Status Session::instantiate(std::shared_ptr<const Executable> exe) {
  REPRO_REQUIRE(!engine_.has_value(),
                "Session::instantiate on an already-compiled session");
  if (exe == nullptr || exe->graph == nullptr) {
    return Status::InvalidArgument("Session::instantiate: null executable");
  }
  engine_.emplace(Engine::Internal{}, std::move(exe), opts_.engineOptions());
  return Status::Ok();
}

Status Session::save(const std::string& path) const {
  REPRO_REQUIRE(engine_.has_value(), "Session::save before compile");
  return engine_->executable().Save(path);
}

RunReport Session::run() {
  REPRO_REQUIRE(engine_.has_value(), "Session::run before compile");
  return engine_->run();
}

std::unique_ptr<Engine> Session::makeReplica(std::size_t host_threads) const {
  REPRO_REQUIRE(engine_.has_value(), "Session::makeReplica before compile");
  EngineOptions eo = opts_.engineOptions();
  if (host_threads != 0) eo.host_threads = host_threads;
  // Replicas run from host worker threads (the serving pool's numerics
  // replay); tracing them would race the single-writer lanes and leak
  // host-schedule nondeterminism into the trace. The scheduler owns the
  // serving timeline instead.
  eo.tracer = nullptr;
  return std::make_unique<Engine>(Engine::Internal{}, *engine_, eo);
}

void Session::writeTensor(const Tensor& t, std::span<const float> data) {
  REPRO_REQUIRE(engine_.has_value(), "Session::writeTensor before compile");
  engine_->writeTensor(t, data);
}

void Session::readTensor(const Tensor& t, std::span<float> out) const {
  REPRO_REQUIRE(engine_.has_value(), "Session::readTensor before compile");
  engine_->readTensor(t, out);
}

std::size_t Session::ownedStorageBytes() const {
  REPRO_REQUIRE(engine_.has_value(),
                "Session::ownedStorageBytes before compile");
  return engine_->ownedStorageBytes();
}

const Executable& Session::executable() const {
  REPRO_REQUIRE(engine_.has_value(), "Session::executable before compile");
  return engine_->executable();
}

}  // namespace repro::ipu
