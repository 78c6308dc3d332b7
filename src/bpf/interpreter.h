// Reference interpreter. Executes raw (decoded) instructions against a
// RuntimeContext. It is the reference the differential tests hold the
// executor to (interpreter vs JIT must agree) and the semantic ground
// truth for the ISA subset; no deploy path runs it.
#pragma once

#include <cstdint>
#include <vector>

#include "bpf/exec.h"
#include "bpf/insn.h"

namespace rdx::bpf {

// Runs `insns` to completion (EXIT) and returns r0. Runtime errors
// (bad memory access, division trap policy violations, instruction-limit
// overrun) are reported as Status — a verified program never hits them,
// which is exactly what the verifier tests assert.
StatusOr<ExecResult> Interpret(const std::vector<Insn>& insns,
                               RuntimeContext& rt, const ExecOptions& opts);

}  // namespace rdx::bpf
