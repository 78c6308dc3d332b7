#include "kvstore/kvstore.h"

#include <array>
#include <utility>

namespace rdx::kvstore {

namespace {
const char* CommandName(CommandType type) {
  switch (type) {
    case CommandType::kGet: return "GET";
    case CommandType::kSet: return "SET";
    case CommandType::kDel: return "DEL";
    case CommandType::kIncr: return "INCR";
  }
  return "?";
}

void AppendBulk(Bytes& out, std::string_view s) {
  out.push_back('$');
  const std::string len = std::to_string(s.size());
  out.insert(out.end(), len.begin(), len.end());
  out.push_back('\r');
  out.push_back('\n');
  out.insert(out.end(), s.begin(), s.end());
  out.push_back('\r');
  out.push_back('\n');
}

StatusOr<std::string> ReadBulk(ByteSpan bytes, std::size_t& off) {
  if (off >= bytes.size() || bytes[off] != '$') {
    return InvalidArgument("expected bulk string");
  }
  ++off;
  std::size_t len = 0;
  while (off < bytes.size() && bytes[off] != '\r') {
    if (bytes[off] < '0' || bytes[off] > '9') {
      return InvalidArgument("bad bulk length");
    }
    len = len * 10 + (bytes[off] - '0');
    ++off;
  }
  if (off + 2 + len + 2 > bytes.size() + 0) {
    if (off + 2 + len > bytes.size()) {
      return InvalidArgument("truncated bulk string");
    }
  }
  off += 2;  // \r\n
  std::string s(reinterpret_cast<const char*>(bytes.data() + off), len);
  off += len;
  if (off + 2 > bytes.size() || bytes[off] != '\r' || bytes[off + 1] != '\n') {
    return InvalidArgument("missing bulk terminator");
  }
  off += 2;
  return s;
}
}  // namespace

Bytes EncodeCommand(const Command& command) {
  Bytes out;
  const int nargs = command.type == CommandType::kSet ? 3 : 2;
  out.push_back('*');
  out.push_back(static_cast<std::uint8_t>('0' + nargs));
  out.push_back('\r');
  out.push_back('\n');
  AppendBulk(out, CommandName(command.type));
  AppendBulk(out, command.key);
  if (command.type == CommandType::kSet) AppendBulk(out, command.value);
  return out;
}

StatusOr<Command> DecodeCommand(ByteSpan bytes) {
  if (bytes.size() < 4 || bytes[0] != '*') {
    return InvalidArgument("expected RESP array");
  }
  const int nargs = bytes[1] - '0';
  if (nargs < 2 || nargs > 3 || bytes[2] != '\r' || bytes[3] != '\n') {
    return InvalidArgument("bad RESP array header");
  }
  std::size_t off = 4;
  RDX_ASSIGN_OR_RETURN(const std::string verb, ReadBulk(bytes, off));
  Command command;
  if (verb == "GET") {
    command.type = CommandType::kGet;
  } else if (verb == "SET") {
    command.type = CommandType::kSet;
  } else if (verb == "DEL") {
    command.type = CommandType::kDel;
  } else if (verb == "INCR") {
    command.type = CommandType::kIncr;
  } else {
    return InvalidArgument("unknown command verb");
  }
  RDX_ASSIGN_OR_RETURN(command.key, ReadBulk(bytes, off));
  if (command.type == CommandType::kSet) {
    if (nargs != 3) return InvalidArgument("SET needs a value");
    RDX_ASSIGN_OR_RETURN(command.value, ReadBulk(bytes, off));
  } else if (nargs != 2) {
    return InvalidArgument("unexpected extra argument");
  }
  return command;
}

KvStore::KvStore(sim::EventQueue& events, rdma::Node& node,
                 StoreConfig config)
    : events_(events), config_(config) {
  cpu_ = std::make_unique<sim::CpuScheduler>(events_, config_.cores,
                                             config_.cost.cpu_hz);
  core::SandboxConfig sandbox_config;
  sandbox_config.seed = config_.seed;
  sandbox_config.telemetry = config_.telemetry;
  sandbox_ = std::make_unique<core::Sandbox>(events_, node, sandbox_config);
  Status booted = sandbox_->CtxInit();
  (void)booted;
  metrics_.window_start = events_.Now();
}

StatusOr<std::string> KvStore::Apply(const Command& command) {
  switch (command.type) {
    case CommandType::kGet: {
      auto it = data_.find(command.key);
      if (it == data_.end()) {
        ++metrics_.misses;
        return std::string();
      }
      ++metrics_.hits;
      return it->second;
    }
    case CommandType::kSet:
      data_[command.key] = command.value;
      return std::string("OK");
    case CommandType::kDel:
      data_.erase(command.key);
      return std::string("OK");
    case CommandType::kIncr: {
      auto& slot = data_[command.key];
      std::uint64_t v = 0;
      if (!slot.empty()) v = std::strtoull(slot.c_str(), nullptr, 10);
      slot = std::to_string(v + 1);
      return slot;
    }
  }
  return Internal("corrupt command");
}

void KvStore::Execute(const Command& command,
                      std::function<void(StatusOr<std::string>)> done) {
  const sim::SimTime start = events_.Now();
  // Round-trip the RESP codec (parse cost is part of kv_request_cycles).
  auto decoded = DecodeCommand(EncodeCommand(command));
  if (!decoded.ok()) {
    done(decoded.status());
    return;
  }

  std::uint64_t ext_cycles = 0;
  if (config_.run_extension &&
      sandbox_->VisibleVersion(config_.ebpf_hook) != 0) {
    std::array<std::uint8_t, 16> ctx{};
    StoreLE(ctx.data(), Fnv1a64(ByteSpan(
                            reinterpret_cast<const std::uint8_t*>(
                                command.key.data()),
                            command.key.size())));
    ctx[8] = static_cast<std::uint8_t>(command.type);
    auto result = sandbox_->ExecuteHook(config_.ebpf_hook, ctx);
    if (result.ok()) {
      ext_cycles = config_.cost.ExtensionExecCycles(result->insns_executed);
    } else {
      ++metrics_.extension_failures;
    }
  }
  // Trace-ring emits ride on the request's CPU budget — this is where
  // telemetry's data-plane cost becomes virtual time.
  ext_cycles +=
      config_.cost.trace_emit_cycles * sandbox_->DrainTraceEmits();

  cpu_->Submit(config_.cost.kv_request_cycles + ext_cycles,
               [this, command = decoded.value(), start,
                done = std::move(done)]() mutable {
                 auto reply = Apply(command);
                 ++metrics_.ops;
                 metrics_.latency_ns.Add(
                     static_cast<std::uint64_t>(events_.Now() - start));
                 done(std::move(reply));
               });
}

StoreMetrics KvStore::TakeMetrics() {
  metrics_.window_end = events_.Now();
  StoreMetrics out = std::exchange(metrics_, StoreMetrics{});
  metrics_.window_start = events_.Now();
  return out;
}

KvWorkload::KvWorkload(sim::EventQueue& events, KvStore& store,
                       WorkloadConfig config)
    : events_(events), store_(store), config_(config), rng_(config.seed) {}

Command KvWorkload::NextCommand() {
  Command command;
  const std::uint64_t key_id =
      rng_.NextZipf(config_.key_space, config_.zipf_skew);
  command.key = "key:" + std::to_string(key_id);
  if (rng_.NextBool(config_.get_fraction)) {
    command.type = CommandType::kGet;
  } else {
    command.type = CommandType::kSet;
    command.value.assign(config_.value_bytes, 'v');
  }
  return command;
}

void KvWorkload::Start() {
  if (running_) return;
  running_ = true;
  for (int client = 0; client < config_.clients; ++client) {
    IssueNext(client);
  }
}

void KvWorkload::Stop() { running_ = false; }

void KvWorkload::IssueNext(int client) {
  if (!running_) return;
  store_.Execute(NextCommand(), [this, client](StatusOr<std::string> reply) {
    (void)reply;
    ++completed_;
    if (running_) IssueNext(client);
  });
}

}  // namespace rdx::kvstore
