#include "core/gatekeeper.h"

namespace rdx::core {

const char* RoleName(Role role) {
  switch (role) {
    case Role::kObserver: return "observer";
    case Role::kDeployer: return "deployer";
    case Role::kOperator: return "operator";
  }
  return "unknown";
}

const char* OperationName(Operation op) {
  switch (op) {
    case Operation::kDeploy: return "deploy";
    case Operation::kDetach: return "detach";
    case Operation::kRollback: return "rollback";
    case Operation::kXStateRead: return "xstate_read";
    case Operation::kXStateWrite: return "xstate_write";
    case Operation::kLock: return "lock";
    case Operation::kBroadcast: return "broadcast";
  }
  return "unknown";
}

void Gatekeeper::AddPrincipal(std::string name, Role role,
                              std::uint64_t max_insns) {
  principals_[std::move(name)] = Principal{role, max_insns};
}

Status Gatekeeper::RemovePrincipal(const std::string& name) {
  if (principals_.erase(name) == 0) return NotFound("unknown principal");
  return OkStatus();
}

bool Gatekeeper::RoleAllows(Role role, Operation op) {
  switch (op) {
    case Operation::kXStateRead:
      return true;  // every role can observe
    case Operation::kDeploy:
    case Operation::kDetach:
      return role == Role::kDeployer || role == Role::kOperator;
    case Operation::kRollback:
    case Operation::kXStateWrite:
    case Operation::kLock:
    case Operation::kBroadcast:
      return role == Role::kOperator;
  }
  return false;
}

Status Gatekeeper::Authorize(const std::string& principal, Operation op,
                             std::uint64_t insns) {
  auto log = [&](bool allowed, std::string detail) {
    audit_log_.push_back({principal, op, allowed, std::move(detail)});
    if (!allowed) ++denied_;
  };
  auto it = principals_.find(principal);
  if (it == principals_.end()) {
    log(false, "unknown principal");
    return PermissionDenied("unknown principal '" + principal + "'");
  }
  if (!RoleAllows(it->second.role, op)) {
    log(false, std::string("role ") + RoleName(it->second.role) +
                   " may not " + OperationName(op));
    return PermissionDenied(std::string(RoleName(it->second.role)) +
                            " may not " + OperationName(op));
  }
  if ((op == Operation::kDeploy || op == Operation::kBroadcast) &&
      it->second.max_insns != 0 && insns > it->second.max_insns) {
    log(false, "instruction budget exceeded");
    return ResourceExhausted("extension exceeds principal's instruction "
                             "budget");
  }
  log(true, "");
  return OkStatus();
}

std::uint64_t SignImage(ByteSpan image, std::uint64_t key) {
  // MAC = H(key || H(image) || key'), H = ImageHash.
  Bytes material;
  AppendLE<std::uint64_t>(material, key);
  AppendLE<std::uint64_t>(material, ImageHash(image));
  AppendLE<std::uint64_t>(material, key ^ 0x5c5c5c5c5c5c5c5cull);
  return ImageHash(material);
}

bool VerifyImageSignature(ByteSpan image, std::uint64_t key,
                          std::uint64_t signature) {
  return SignImage(image, key) == signature;
}

}  // namespace rdx::core
