// Security layer from §5 of the paper, three properties:
//
//  Confidentiality — the control plane is the single remote gatekeeper;
//  a role-based privilege model decides which principal may deploy,
//  read/write XState, roll back, or lock each sandbox. Every decision is
//  appended to an audit log.
//
//  Integrity — deployed images carry a keyed signature (stored in the
//  ImageDesc); a sandbox configured with the key refuses to execute
//  images whose MAC does not verify, so a compromised peer with RDMA
//  reach cannot plant code even if it can write memory. The Inspector
//  (introspection half) lets the control plane re-read deployed hooks
//  and detect tampering after the fact.
//
//  Availability — static instruction budgets at admission time (on top
//  of the runtime step limits the sandbox already enforces), and the
//  rollback machinery in ControlPlane for atomic preemption.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace rdx::core {

enum class Role : std::uint8_t {
  kObserver,  // XState reads only
  kDeployer,  // + deploy/detach extensions
  kOperator,  // + rollback, locks, broadcast, XState writes
};

const char* RoleName(Role role);

enum class Operation : std::uint8_t {
  kDeploy,
  kDetach,
  kRollback,
  kXStateRead,
  kXStateWrite,
  kLock,
  kBroadcast,
};

const char* OperationName(Operation op);

struct AuditEntry {
  std::string principal;
  Operation op;
  bool allowed;
  std::string detail;
};

// Role-based access control for CodeFlow operations, with audit logging
// and per-principal instruction budgets (availability guard).
class Gatekeeper {
 public:
  // Registers a principal. `max_insns` caps the size of any one
  // extension this principal may deploy (0 = unlimited).
  void AddPrincipal(std::string name, Role role,
                    std::uint64_t max_insns = 0);
  Status RemovePrincipal(const std::string& name);

  // Authorizes `principal` to perform `op`. Deploy-class checks may pass
  // the extension's instruction count for budget enforcement.
  Status Authorize(const std::string& principal, Operation op,
                   std::uint64_t insns = 0);

  const std::vector<AuditEntry>& audit_log() const { return audit_log_; }
  std::size_t denied_count() const { return denied_; }

 private:
  static bool RoleAllows(Role role, Operation op);

  struct Principal {
    Role role;
    std::uint64_t max_insns;
  };
  std::unordered_map<std::string, Principal> principals_;
  std::vector<AuditEntry> audit_log_;
  std::size_t denied_ = 0;
};

// ---- image signing (integrity) ----

// Keyed MAC over image bytes. Not cryptographic (built on ImageHash), but
// the mechanics — key distribution at boot, MAC in the ImageDesc, verify
// before execute — are exactly what a production HMAC would do.
std::uint64_t SignImage(ByteSpan image, std::uint64_t key);
bool VerifyImageSignature(ByteSpan image, std::uint64_t key,
                          std::uint64_t signature);

}  // namespace rdx::core
