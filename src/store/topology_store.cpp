#include "store/topology_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/error.h"

namespace mmlpt::store {

namespace {

// ---- little-endian primitives -------------------------------------------

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

/// Bounds-checked little-endian reader over a block payload.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8() { return take(1)[0]; }
  [[nodiscard]] std::uint16_t u16() {
    const auto* b = take(2);
    return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
  }
  [[nodiscard]] std::uint32_t u32() {
    const auto* b = take(4);
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | b[i];
    return v;
  }
  [[nodiscard]] std::uint64_t u64() {
    const auto* b = take(8);
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
    return v;
  }
  [[nodiscard]] net::IpAddress addr() {
    const auto family = u8();
    if (family != 4 && family != 6) {
      throw ParseError("topology store: bad address family tag");
    }
    const auto* b = take(16);
    if (family == 4) {
      return net::IpAddress(b[0], b[1], b[2], b[3]);
    }
    net::IpAddress::Bytes bytes;
    std::memcpy(bytes.data(), b, bytes.size());
    return net::IpAddress::v6(bytes);
  }
  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }

 private:
  const std::uint8_t* take(std::size_t n) {
    if (data_.size() - pos_ < n) {
      throw ParseError("topology store: short block payload");
    }
    const auto* p =
        reinterpret_cast<const std::uint8_t*>(data_.data()) + pos_;
    pos_ += n;
    return p;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

void put_addr(std::string& out, const net::IpAddress& addr) {
  out.push_back(addr.family() == net::Family::kIpv6 ? 6 : 4);
  const auto& bytes = addr.bytes();
  out.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
}

std::string header_bytes() {
  std::string header;
  put_u32(header, TopologyStore::kMagic);
  put_u32(header, TopologyStore::kVersion);
  return header;
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw SystemError("topology store: " + what + ": " +
                    std::strerror(errno));
}

}  // namespace

std::uint32_t crc32(std::string_view data) {
  // IEEE 802.3 reflected polynomial, bytewise table built on first use.
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFU;
  for (const char ch : data) {
    crc = table[(crc ^ static_cast<std::uint8_t>(ch)) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFU;
}

std::string encode_snapshot(const TopologySnapshot& snapshot) {
  std::string payload;
  put_u32(payload, static_cast<std::uint32_t>(snapshot.hops.size()));
  for (const auto& hop : snapshot.hops) {
    put_addr(payload, hop.addr);
    put_u16(payload, static_cast<std::uint16_t>(hop.distance));
  }
  put_u32(payload, static_cast<std::uint32_t>(snapshot.destinations.size()));
  for (const auto& dest : snapshot.destinations) {
    put_addr(payload, dest.addr);
    put_u16(payload, static_cast<std::uint16_t>(dest.record.distance));
    put_u64(payload, dest.record.probes);
  }
  return payload;
}

TopologySnapshot decode_snapshot(std::string_view payload) {
  // Encoded record sizes: a tagged address (1 + 16 bytes), a u16
  // distance and, for a destination, a u64 probe count. A count is only
  // trusted as far as the bytes left could hold that many records, so a
  // corrupt u32 cannot drive a multi-gigabyte reserve.
  constexpr std::size_t kHopBytes = 19;
  constexpr std::size_t kDestinationBytes = 27;
  Reader reader(payload);
  TopologySnapshot snapshot;
  const auto hop_count = reader.u32();
  snapshot.hops.reserve(
      std::min<std::size_t>(hop_count, reader.remaining() / kHopBytes));
  for (std::uint32_t i = 0; i < hop_count; ++i) {
    HopRecord hop;
    hop.addr = reader.addr();
    hop.distance = reader.u16();
    snapshot.hops.push_back(hop);
  }
  const auto dest_count = reader.u32();
  snapshot.destinations.reserve(std::min<std::size_t>(
      dest_count, reader.remaining() / kDestinationBytes));
  for (std::uint32_t i = 0; i < dest_count; ++i) {
    DestinationEntry dest;
    dest.addr = reader.addr();
    dest.record.distance = reader.u16();
    dest.record.probes = reader.u64();
    snapshot.destinations.push_back(dest);
  }
  if (!reader.done()) {
    throw ParseError("topology store: trailing bytes in block payload");
  }
  return snapshot;
}

TopologyStore::LoadResult TopologyStore::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  LoadResult result;
  if (!in) return result;  // missing file: an empty store (first run)
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string data = buffer.str();

  if (data.size() < 8) {
    // A half-written header (crash during the very first append): there
    // is no valid prefix to keep, but the file is recoverable garbage,
    // not a foreign schema.
    result.truncated_tail = !data.empty();
    return result;
  }
  Reader header(std::string_view(data).substr(0, 8));
  if (header.u32() != kMagic) {
    throw TopologyError("topology store: bad magic in " + path);
  }
  if (const auto version = header.u32(); version != kVersion) {
    throw TopologyError("topology store: unsupported version " +
                        std::to_string(version) + " in " + path);
  }

  std::size_t pos = 8;
  while (pos < data.size()) {
    if (data.size() - pos < 8) {
      result.truncated_tail = true;  // half-written block header
      break;
    }
    Reader block_header(std::string_view(data).substr(pos, 8));
    const auto length = block_header.u32();
    const auto checksum = block_header.u32();
    if (data.size() - pos - 8 < length) {
      result.truncated_tail = true;  // payload cut short
      break;
    }
    const auto payload = std::string_view(data).substr(pos + 8, length);
    if (crc32(payload) != checksum) {
      result.truncated_tail = true;  // corrupt block: stop at valid prefix
      break;
    }
    TopologySnapshot block;
    try {
      block = decode_snapshot(payload);
    } catch (const ParseError&) {
      result.truncated_tail = true;  // CRC collided with garbage
      break;
    }
    result.snapshot.hops.insert(result.snapshot.hops.end(),
                                block.hops.begin(), block.hops.end());
    result.snapshot.destinations.insert(result.snapshot.destinations.end(),
                                        block.destinations.begin(),
                                        block.destinations.end());
    ++result.blocks;
    pos += 8 + length;
  }
  return result;
}

void TopologyStore::append(const std::string& path,
                           const TopologySnapshot& delta) {
  if (delta.empty()) return;

  const std::string payload = encode_snapshot(delta);
  std::string block;
  put_u32(block, static_cast<std::uint32_t>(payload.size()));
  put_u32(block, crc32(payload));
  block += payload;

  // O_RDWR so the existing header can be verified before appending;
  // O_APPEND so the block lands atomically at the end whatever other
  // readers are doing.
  const int fd = ::open(path.c_str(), O_RDWR | O_APPEND | O_CREAT, 0644);
  if (fd < 0) throw_errno("cannot open " + path);
  struct FdGuard {
    int fd;
    ~FdGuard() { ::close(fd); }
  } guard{fd};

  struct stat st{};
  if (::fstat(fd, &st) != 0) throw_errno("fstat " + path);
  std::string out;
  if (st.st_size == 0) {
    out = header_bytes() + block;  // first append writes the header too
  } else {
    char existing[8];
    ssize_t n = ::pread(fd, existing, sizeof existing, 0);
    if (n < 0) throw_errno("read header of " + path);
    const auto expected = header_bytes();
    if (static_cast<std::size_t>(n) < expected.size() ||
        std::memcmp(existing, expected.data(), expected.size()) != 0) {
      throw TopologyError(
          "topology store: refusing to append to foreign file " + path);
    }
    out = std::move(block);
  }

  // One write(2) per append: single-writer atomicity (a concurrent
  // reader sees whole blocks or a clean truncation, never interleaving).
  std::size_t written = 0;
  while (written < out.size()) {
    const ssize_t n =
        ::write(fd, out.data() + written, out.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("append to " + path);
    }
    written += static_cast<std::size_t>(n);
  }
}

}  // namespace mmlpt::store
