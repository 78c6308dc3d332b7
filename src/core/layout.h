// On-node memory layout that the management stubs publish at boot and the
// remote control plane manipulates over RDMA. Everything the control
// plane touches is a fixed-offset word in one of these structures — this
// file is the wire contract between ctx_init/ctx_register (§3.1) and the
// CodeFlow implementation.
//
//   ControlBlock ("mgmt stub" root, one per sandbox, RDMA-registered):
//     +0x00 magic            "RDXCB\0\0\1"
//     +0x08 epoch            bumped on every committed update
//     +0x10 lock             rdx_mutual_excl word (0 free / owner id)
//     +0x18 hook_table_addr  -> u64[hook_count], each an ImageDesc addr
//     +0x20 hook_count
//     +0x28 meta_xstate_addr -> u64[meta_capacity] XState directory
//     +0x30 meta_capacity
//     +0x38 scratch_addr     extension scratchpad (images, descs, XState)
//     +0x40 scratch_size
//     +0x48 scratch_brk      bump cursor, advanced remotely via FETCH_ADD;
//                            image regions are carved as power-of-two
//                            blocks, and the control plane reuses a
//                            reclaimed block without moving the cursor
//     +0x50 symtab_addr      serialized symbol table (the exposed GOT)
//     +0x58 symtab_len
//     +0x60 doorbell         rdx_cc_event flush-trigger word
//     +0x68 health_addr      -> HealthBlock[hook_count] runtime guardrails
//     +0x70 trace_addr       -> TraceRing (telemetry; 0 = disabled)
//
//   TraceRing (64-aligned, RDMA-registered; the data-plane CPU produces
//   fixed-size trace events into it wait-free, the control plane harvests
//   them with one-sided READs and advances the consumer cursor with
//   FETCH_ADD — the observability analogue of the HealthBlock design):
//     +0x00 magic      "RDXTR\0\0\1"
//     +0x08 capacity   slot count, power of two
//     +0x10 head       producer cursor: absolute count of events ever
//                      emitted (CPU-written; slot = seq % capacity)
//     +0x18 tail       consumer cursor: absolute count of events
//                      harvested (advanced remotely via FETCH_ADD only)
//     +0x20 dropped    events overwritten before harvest (producer never
//                      blocks; overflow overwrites the oldest slot)
//     +0x40 slots      capacity * 32-byte TraceSlot entries
//
//   TraceSlot (32 bytes): the slot's absolute sequence number doubles as
//   tear detection — a harvested slot whose seq does not equal its
//   expected absolute index was torn or corrupted and is discarded with
//   explicit loss accounting, never mis-parsed:
//     +0x00 seq    +0x08 timestamp (virtual-clock ns)
//     +0x10 meta   kind | tid<<8 | code<<16      +0x18 arg
//
//   HealthBlock (one per hook, 64-aligned array; the data-plane CPU
//   updates these words on every execution, the control plane reads them
//   one-sided to detect misbehaving extensions with zero data-plane
//   involvement):
//     +0x00 executions            attempts on a non-empty hook
//     +0x08 traps                 runtime faults (bad access, helper trap)
//     +0x10 fuel_exhaustions      instruction/step budget overruns
//     +0x18 consecutive_failures  reset to 0 on every success
//     +0x20 last_good_desc        ImageDesc of the last image that
//                                 completed an execution successfully
//     +0x28 failsafe_detaches     times the local fail-safe reverted the
//                                 hook to last_good_desc (K consecutive
//                                 failures)
//     +0x30 visible_desc          ImageDesc the CPU's hook cache last
//                                 refreshed to (written on every refresh,
//                                 guardrails on or off); with
//                                 last_good_desc, what the control plane
//                                 reads before it reuses a reclaimed
//                                 image region
//
//   ImageDesc (16-aligned, in the scratchpad):
//     +0x00 image_addr   +0x08 image_len
//     +0x10 version      +0x18 refcount    +0x20 signature
//
//   Hook slot: one u64 = address of the active ImageDesc (0 = detached).
//   Commit is a single qword write/CAS of this slot — that is what makes
//   rdx_tx atomic with respect to concurrently executing requests.
//
//   Symbol table: u32 count, then {u64 name_hash, u64 value} entries.
#pragma once

#include <cstdint>

#include "common/bytes.h"

namespace rdx::core {

constexpr std::uint64_t kControlBlockMagic = 0x0100424358445221ULL;

// ControlBlock field offsets.
constexpr std::uint64_t kCbMagic = 0x00;
constexpr std::uint64_t kCbEpoch = 0x08;
constexpr std::uint64_t kCbLock = 0x10;
constexpr std::uint64_t kCbHookTableAddr = 0x18;
constexpr std::uint64_t kCbHookCount = 0x20;
constexpr std::uint64_t kCbMetaXstateAddr = 0x28;
constexpr std::uint64_t kCbMetaCapacity = 0x30;
constexpr std::uint64_t kCbScratchAddr = 0x38;
constexpr std::uint64_t kCbScratchSize = 0x40;
constexpr std::uint64_t kCbScratchBrk = 0x48;
constexpr std::uint64_t kCbSymtabAddr = 0x50;
constexpr std::uint64_t kCbSymtabLen = 0x58;
// Doorbell word targeted by rdx_cc_event's injected flush trigger.
constexpr std::uint64_t kCbDoorbell = 0x60;
constexpr std::uint64_t kCbHealthAddr = 0x68;
constexpr std::uint64_t kCbTraceAddr = 0x70;
constexpr std::uint64_t kControlBlockBytes = 0x78;

// TraceRing header field offsets (at trace_addr) and slot geometry. The
// telemetry subsystem (src/telemetry/) produces and harvests these; the
// offsets live here because they are part of the wire contract.
constexpr std::uint64_t kTraceRingMagic = 0x0100525458445221ULL;  // "!RDXTR\0\1"
constexpr std::uint64_t kTrMagic = 0x00;
constexpr std::uint64_t kTrCapacity = 0x08;
constexpr std::uint64_t kTrHead = 0x10;
constexpr std::uint64_t kTrTail = 0x18;
constexpr std::uint64_t kTrDropped = 0x20;
constexpr std::uint64_t kTraceRingHeaderBytes = 0x40;
constexpr std::uint64_t kTsSeq = 0x00;
constexpr std::uint64_t kTsTimestamp = 0x08;
constexpr std::uint64_t kTsMeta = 0x10;
constexpr std::uint64_t kTsArg = 0x18;
constexpr std::uint64_t kTraceSlotBytes = 0x20;

// HealthBlock field offsets (one block per hook at
// health_addr + hook * kHealthBlockBytes).
constexpr std::uint64_t kHbExecutions = 0x00;
constexpr std::uint64_t kHbTraps = 0x08;
constexpr std::uint64_t kHbFuelExhaustions = 0x10;
constexpr std::uint64_t kHbConsecutiveFailures = 0x18;
constexpr std::uint64_t kHbLastGoodDesc = 0x20;
constexpr std::uint64_t kHbFailsafeDetaches = 0x28;
constexpr std::uint64_t kHbVisibleDesc = 0x30;
constexpr std::uint64_t kHealthBlockBytes = 0x38;

// CPU-side (and control-plane-side, after an RDMA read) view of one
// hook's HealthBlock.
struct HealthView {
  std::uint64_t executions = 0;
  std::uint64_t traps = 0;
  std::uint64_t fuel_exhaustions = 0;
  std::uint64_t consecutive_failures = 0;
  std::uint64_t last_good_desc = 0;
  std::uint64_t failsafe_detaches = 0;
  std::uint64_t visible_desc = 0;
};

// ImageDesc field offsets.
constexpr std::uint64_t kDescImageAddr = 0x00;
constexpr std::uint64_t kDescImageLen = 0x08;
constexpr std::uint64_t kDescVersion = 0x10;
constexpr std::uint64_t kDescRefcount = 0x18;
// Keyed MAC over the image bytes (0 when signing is disabled); see
// core/gatekeeper.h.
constexpr std::uint64_t kDescSignature = 0x20;
constexpr std::uint64_t kImageDescBytes = 0x28;

// Fills the ImageDesc at `desc` for `image` landed at `image_addr`; the
// signature word only when `signing_key` != 0.
void StoreDesc(std::uint8_t* desc, std::uint64_t image_addr, ByteSpan image,
               std::uint64_t version, std::uint64_t signing_key);
// Size of the scratchpad region one image occupies: the image padded to
// 64 bytes, then its ImageDesc.
std::uint64_t ImageRegionBytes(std::uint64_t image_len);
// That region's bytes for `image` placed at `image_addr`.
Bytes ComposeImageRegion(ByteSpan image, std::uint64_t image_addr,
                         std::uint64_t version, std::uint64_t signing_key);

// Parsed (CPU-side) view of a ControlBlock; the control plane rebuilds
// the same view from an RDMA read.
struct ControlBlockView {
  std::uint64_t cb_addr = 0;
  std::uint64_t epoch = 0;
  std::uint64_t hook_table_addr = 0;
  std::uint64_t hook_count = 0;
  std::uint64_t meta_xstate_addr = 0;
  std::uint64_t meta_capacity = 0;
  std::uint64_t scratch_addr = 0;
  std::uint64_t scratch_size = 0;
  std::uint64_t symtab_addr = 0;
  std::uint64_t symtab_len = 0;
  std::uint64_t health_addr = 0;
  std::uint64_t trace_addr = 0;
};

// Symbol naming scheme shared by both ends. Helpers are exported as
// "helper:<id>", Wasm host functions as "host:<name>".
std::uint64_t SymbolHash(const char* prefix, std::uint64_t id);
std::uint64_t SymbolHashName(const char* prefix, const char* name);

}  // namespace rdx::core
