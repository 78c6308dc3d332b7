#include "bpf/exec.h"

namespace rdx::bpf {

Status MemSpace::LoadInt(std::uint64_t addr, int size, std::uint64_t& out) {
  RDX_ASSIGN_OR_RETURN(MutableByteSpan span, SpanAt(addr, size));
  switch (size) {
    case 1: out = span[0]; return OkStatus();
    case 2: out = LoadLE<std::uint16_t>(span.data()); return OkStatus();
    case 4: out = LoadLE<std::uint32_t>(span.data()); return OkStatus();
    case 8: out = LoadLE<std::uint64_t>(span.data()); return OkStatus();
  }
  return InvalidArgument("bad access size");
}

Status MemSpace::StoreInt(std::uint64_t addr, int size, std::uint64_t value) {
  RDX_ASSIGN_OR_RETURN(MutableByteSpan span, SpanAt(addr, size));
  switch (size) {
    case 1:
      span[0] = static_cast<std::uint8_t>(value);
      return OkStatus();
    case 2:
      StoreLE(span.data(), static_cast<std::uint16_t>(value));
      return OkStatus();
    case 4:
      StoreLE(span.data(), static_cast<std::uint32_t>(value));
      return OkStatus();
    case 8:
      StoreLE(span.data(), value);
      return OkStatus();
  }
  return InvalidArgument("bad access size");
}

VectorMemory::VectorMemory(std::uint64_t capacity, std::uint64_t base)
    : base_(base), next_(base), bytes_(capacity, 0) {
  set_window({bytes_.data(), base_, capacity});
}

StatusOr<MutableByteSpan> VectorMemory::SpanAt(std::uint64_t addr,
                                               std::uint64_t len) {
  if (addr < base_ || addr + len > base_ + bytes_.size() || addr + len < addr) {
    return OutOfRange("access outside VectorMemory");
  }
  return MutableByteSpan(bytes_.data() + (addr - base_), len);
}

StatusOr<std::uint64_t> VectorMemory::Allocate(std::uint64_t size,
                                               std::uint64_t align) {
  if (size == 0 || align == 0 || (align & (align - 1)) != 0) {
    return InvalidArgument("bad allocation");
  }
  const std::uint64_t addr = (next_ + align - 1) & ~(align - 1);
  if (addr + size > base_ + bytes_.size()) {
    return ResourceExhausted("VectorMemory exhausted");
  }
  next_ = addr + size;
  return addr;
}

namespace {
constexpr HelperSpec kHelpers[] = {
    {kHelperMapLookupElem, "map_lookup_elem", true, true, false, true},
    {kHelperMapUpdateElem, "map_update_elem", true, true, true, false},
    {kHelperMapDeleteElem, "map_delete_elem", true, true, false, false},
    {kHelperKtimeGetNs, "ktime_get_ns", false, false, false, false},
    {kHelperTracePrintk, "trace_printk", false, false, false, false},
    {kHelperGetPrandomU32, "get_prandom_u32", false, false, false, false},
    {kHelperGetSmpProcessorId, "get_smp_processor_id", false, false, false,
     false},
    {kHelperRingbufOutput, "ringbuf_output", true, true, false, false},
};
}  // namespace

const HelperSpec* FindHelper(std::int32_t id) {
  for (const HelperSpec& h : kHelpers) {
    if (h.id == id) return &h;
  }
  return nullptr;
}

namespace {

// The map registered at `map_addr` and a view over its storage.
StatusOr<MapView> ViewForMap(RuntimeContext& rt, std::uint64_t map_addr,
                             const MapSpec*& spec_out) {
  auto it = rt.maps.find(map_addr);
  if (it == rt.maps.end()) {
    return FailedPrecondition("helper called with unregistered map");
  }
  spec_out = &it->second;
  RDX_ASSIGN_OR_RETURN(
      MutableByteSpan storage,
      rt.mem->FastSpanAt(map_addr, MapRequiredBytes(it->second)));
  return MapView(storage);
}

}  // namespace

StatusOr<std::uint64_t> CallHelperFn(
    RuntimeContext& rt, std::int32_t id,
    const std::array<std::uint64_t, kMaxHelperArgs>& args) {
  if (rt.mem == nullptr) return Internal("RuntimeContext without MemSpace");
  switch (id) {
    case kHelperMapLookupElem: {
      const MapSpec* spec = nullptr;
      RDX_ASSIGN_OR_RETURN(MapView view, ViewForMap(rt, args[0], spec));
      RDX_ASSIGN_OR_RETURN(MutableByteSpan key,
                           rt.mem->FastSpanAt(args[1], spec->key_size));
      auto off = view.LookupOffset(ByteSpan(key.data(), key.size()));
      if (!off.ok()) return 0ull;  // NULL: not found
      return args[0] + off.value();
    }
    case kHelperMapUpdateElem: {
      const MapSpec* spec = nullptr;
      RDX_ASSIGN_OR_RETURN(MapView view, ViewForMap(rt, args[0], spec));
      RDX_ASSIGN_OR_RETURN(MutableByteSpan key,
                           rt.mem->FastSpanAt(args[1], spec->key_size));
      RDX_ASSIGN_OR_RETURN(MutableByteSpan value,
                           rt.mem->FastSpanAt(args[2], spec->value_size));
      Status s = view.Update(ByteSpan(key.data(), key.size()),
                             ByteSpan(value.data(), value.size()));
      return s.ok() ? 0ull : static_cast<std::uint64_t>(-1);
    }
    case kHelperMapDeleteElem: {
      const MapSpec* spec = nullptr;
      RDX_ASSIGN_OR_RETURN(MapView view, ViewForMap(rt, args[0], spec));
      RDX_ASSIGN_OR_RETURN(MutableByteSpan key,
                           rt.mem->FastSpanAt(args[1], spec->key_size));
      Status s = view.Delete(ByteSpan(key.data(), key.size()));
      return s.ok() ? 0ull : static_cast<std::uint64_t>(-1);
    }
    case kHelperKtimeGetNs:
      return rt.ktime_ns();
    case kHelperTracePrintk:
      ++rt.trace_count;
      return 0ull;
    case kHelperGetPrandomU32:
      if (rt.rng == nullptr) return 0ull;
      return static_cast<std::uint64_t>(
          static_cast<std::uint32_t>(rt.rng->NextU64()));
    case kHelperGetSmpProcessorId:
      return rt.processor_id;
    case kHelperRingbufOutput: {
      const MapSpec* spec = nullptr;
      RDX_ASSIGN_OR_RETURN(MapView view, ViewForMap(rt, args[0], spec));
      const std::uint64_t len = args[2];
      RDX_ASSIGN_OR_RETURN(MutableByteSpan data,
                           rt.mem->FastSpanAt(args[1], len));
      Status s = view.RingOutput(ByteSpan(data.data(), data.size()));
      return s.ok() ? 0ull : static_cast<std::uint64_t>(-1);
    }
    default:
      return Unimplemented("unknown helper");
  }
}

}  // namespace rdx::bpf
