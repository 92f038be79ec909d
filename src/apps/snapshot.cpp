#include "apps/snapshot.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "util/mapped_file.hpp"
#include "util/rng.hpp"

namespace nas::apps {

using graph::Vertex;

namespace {

constexpr std::array<char, 8> kMagicV2 = {'N', 'A', 'S', 'O', 'R', 'C', '2', '\0'};
constexpr std::uint32_t kVersionV2 = 2;
constexpr std::uint64_t kHeaderBytes = 96;
constexpr std::uint64_t kChecksumSeed = 0x9e3779b97f4a7c15ull;

// Header field byte offsets (see the layout table in snapshot.hpp).
constexpr std::size_t kOffMagic = 0;
constexpr std::size_t kOffVersion = 8;
constexpr std::size_t kOffHeaderBytes = 12;
constexpr std::size_t kOffN = 16;
constexpr std::size_t kOffM = 24;
constexpr std::size_t kOffParamsMode = 32;
constexpr std::size_t kOffKappa = 36;
constexpr std::size_t kOffEps = 40;
constexpr std::size_t kOffRho = 48;
constexpr std::size_t kOffNEstimate = 56;
constexpr std::size_t kOffMult = 64;
constexpr std::size_t kOffAdd = 72;
constexpr std::size_t kOffChecksum = 80;
constexpr std::size_t kOffReserved = 88;

/// %.17g round-trips every finite IEEE double exactly.
std::string render_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string render_hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

template <typename T>
void put(std::byte* base, std::size_t offset, T value) {
  std::memcpy(base + offset, &value, sizeof value);
}

template <typename T>
T get(const std::byte* base, std::size_t offset) {
  T value;
  std::memcpy(&value, base + offset, sizeof value);
  return value;
}

/// Folds `size` bytes into the checksum chain as 8-byte words; a trailing
/// partial word is zero-padded.  The v2 sections (96-byte header, 8(n+1)
/// offset bytes, 8m entry bytes) are all multiples of 8, so folding them
/// one after another equals folding the concatenated image.
std::uint64_t fold_words(std::uint64_t h, const std::byte* data,
                         std::size_t size) {
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, data + i, 8);
    h = util::mix64(h ^ word);
  }
  if (i < size) {
    std::uint64_t word = 0;
    std::memcpy(&word, data + i, size - i);
    h = util::mix64(h ^ word);
  }
  return h;
}

[[noreturn]] void fail_v2(const std::string& what, std::uint64_t offset) {
  throw std::runtime_error("oracle snapshot (v2): " + what + " at offset " +
                           std::to_string(offset));
}

}  // namespace

SnapshotFormat parse_snapshot_format(const std::string& name) {
  if (name == "v1") return SnapshotFormat::kV1;
  if (name == "v2") return SnapshotFormat::kV2;
  throw std::invalid_argument("unknown snapshot format \"" + name +
                              "\" (expected v1 or v2)");
}

const char* snapshot_format_name(SnapshotFormat format) {
  return format == SnapshotFormat::kV1 ? "v1" : "v2";
}

SnapshotFormat detect_snapshot_format(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("oracle snapshot: cannot open " + path);
  std::array<char, 8> head{};
  in.read(head.data(), head.size());
  if (in.gcount() == static_cast<std::streamsize>(head.size()) &&
      std::memcmp(head.data(), kMagicV2.data(), head.size()) == 0) {
    return SnapshotFormat::kV2;
  }
  return SnapshotFormat::kV1;
}

std::uint64_t snapshot_v2_checksum(std::span<const std::byte> image) {
  // Fold a copy of the header with the checksum field zeroed, then the
  // payload verbatim.
  std::array<std::byte, kHeaderBytes> header{};
  const std::size_t head = std::min<std::size_t>(image.size(), kHeaderBytes);
  if (head != 0) std::memcpy(header.data(), image.data(), head);
  if (head > kOffChecksum) {
    const std::size_t zeroed = std::min<std::size_t>(head - kOffChecksum, 8);
    std::memset(header.data() + kOffChecksum, 0, zeroed);
  }
  std::uint64_t h = fold_words(kChecksumSeed, header.data(), head);
  return fold_words(h, image.data() + head, image.size() - head);
}

void save_snapshot_v2(const SnapshotContents& contents,
                      const std::string& path) {
  const graph::Csr& csr = contents.csr;
  const std::uint64_t n = csr.num_vertices();
  const std::uint64_t m = csr.num_edges();

  // A default-constructed Csr has an empty offset span; the file always
  // stores n+1 offsets, so substitute the canonical single zero.
  static constexpr std::uint64_t kZeroOffset = 0;
  std::span<const std::uint64_t> offsets = csr.offsets();
  if (offsets.empty()) offsets = std::span<const std::uint64_t>(&kZeroOffset, 1);
  const std::span<const Vertex> entries = csr.entries();

  std::array<std::byte, kHeaderBytes> header{};
  std::memcpy(header.data() + kOffMagic, kMagicV2.data(), kMagicV2.size());
  put(header.data(), kOffVersion, kVersionV2);
  put(header.data(), kOffHeaderBytes, static_cast<std::uint32_t>(kHeaderBytes));
  put(header.data(), kOffN, n);
  put(header.data(), kOffM, m);
  std::uint32_t mode = 0;
  if (contents.params.has_value()) {
    const auto& p = *contents.params;
    mode = p.is_paper_mode() ? 2u : 1u;
    // Store the constructor arguments: Params::paper takes the user-facing
    // eps', Params::practical the internal eps (same contract as v1).
    put(header.data(), kOffKappa, static_cast<std::int32_t>(p.kappa()));
    put(header.data(), kOffEps,
        p.is_paper_mode() ? p.eps_user() : p.eps_internal());
    put(header.data(), kOffRho, p.rho());
    put(header.data(), kOffNEstimate, p.n_estimate());
  }
  put(header.data(), kOffParamsMode, mode);
  put(header.data(), kOffMult, contents.multiplicative);
  put(header.data(), kOffAdd, contents.additive);
  put(header.data(), kOffReserved, std::uint64_t{0});

  // Checksum the header (its checksum field is still zero) and both array
  // sections; every section size is a multiple of 8 so the streamed fold
  // matches snapshot_v2_checksum over the final image.
  std::uint64_t checksum = fold_words(kChecksumSeed, header.data(), kHeaderBytes);
  checksum = fold_words(checksum,
                        reinterpret_cast<const std::byte*>(offsets.data()),
                        offsets.size_bytes());
  checksum = fold_words(checksum,
                        reinterpret_cast<const std::byte*>(entries.data()),
                        entries.size_bytes());
  put(header.data(), kOffChecksum, checksum);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("oracle snapshot: cannot open " + path +
                             " for writing");
  }
  out.write(reinterpret_cast<const char*>(header.data()), header.size());
  out.write(reinterpret_cast<const char*>(offsets.data()),
            static_cast<std::streamsize>(offsets.size_bytes()));
  out.write(reinterpret_cast<const char*>(entries.data()),
            static_cast<std::streamsize>(entries.size_bytes()));
  if (!out) throw std::runtime_error("oracle snapshot: write failed: " + path);
}

SnapshotContents load_snapshot_v2(const std::string& path) {
  const auto file = util::MappedFile::map(path);
  const std::byte* base = file->data();
  const std::uint64_t size = file->size();

  if (size < kHeaderBytes) {
    fail_v2("truncated header (file holds " + std::to_string(size) + " of " +
                std::to_string(kHeaderBytes) + " bytes)",
            size);
  }
  if (std::memcmp(base + kOffMagic, kMagicV2.data(), kMagicV2.size()) != 0) {
    fail_v2("bad magic (not a NAS-ORACLE v2 binary snapshot)", kOffMagic);
  }
  const auto version = get<std::uint32_t>(base, kOffVersion);
  if (version != kVersionV2) {
    if (__builtin_bswap32(version) == kVersionV2) {
      fail_v2("byte-swapped version field (snapshot written on a big-endian "
              "machine; the format is little-endian)",
              kOffVersion);
    }
    fail_v2("unsupported version " + std::to_string(version) + " (expected " +
                std::to_string(kVersionV2) + ")",
            kOffVersion);
  }
  const auto header_bytes = get<std::uint32_t>(base, kOffHeaderBytes);
  if (header_bytes != kHeaderBytes) {
    fail_v2("unexpected header size " + std::to_string(header_bytes) +
                " (expected " + std::to_string(kHeaderBytes) + ")",
            kOffHeaderBytes);
  }
  const auto n = get<std::uint64_t>(base, kOffN);
  if (n >= graph::kInvalidVertex) {
    fail_v2("vertex count " + std::to_string(n) +
                " exceeds the 32-bit ID universe",
            kOffN);
  }
  const auto m = get<std::uint64_t>(base, kOffM);
  if (m > (std::uint64_t{1} << 58)) {
    fail_v2("implausible edge count " + std::to_string(m), kOffM);
  }
  const std::uint64_t expected = kHeaderBytes + 8 * (n + 1) + 8 * m;
  if (size != expected) {
    fail_v2("size mismatch (file is " + std::to_string(size) +
                " bytes, but n=" + std::to_string(n) + " m=" +
                std::to_string(m) + " needs " + std::to_string(expected) + ")",
            std::min(size, expected));
  }

  const auto stored_checksum = get<std::uint64_t>(base, kOffChecksum);
  const auto computed_checksum = snapshot_v2_checksum({base, size});
  if (stored_checksum != computed_checksum) {
    fail_v2("checksum mismatch (stored " + render_hex(stored_checksum) +
                ", computed " + render_hex(computed_checksum) +
                "); snapshot is corrupt",
            kOffChecksum);
  }

  const auto params_mode = get<std::uint32_t>(base, kOffParamsMode);
  if (params_mode > 2) {
    fail_v2("unknown params mode " + std::to_string(params_mode), kOffParamsMode);
  }

  // CSR invariants.  The header is 96 bytes and mappings are page-aligned
  // (or max_align_t-aligned in the read fallback), so the offset array is
  // 8-byte-aligned and the entry array 4-byte-aligned in place.
  const auto* offsets = reinterpret_cast<const std::uint64_t*>(base + kHeaderBytes);
  const std::uint64_t entries_base = kHeaderBytes + 8 * (n + 1);
  const auto* entries = reinterpret_cast<const Vertex*>(base + entries_base);
  const std::uint64_t entry_count = 2 * m;
  if (offsets[0] != 0) {
    fail_v2("offset array must start at 0 (found " +
                std::to_string(offsets[0]) + ")",
            kHeaderBytes);
  }
  for (std::uint64_t v = 0; v < n; ++v) {
    if (offsets[v + 1] < offsets[v]) {
      fail_v2("offset array not nondecreasing at vertex " + std::to_string(v + 1),
              kHeaderBytes + 8 * (v + 1));
    }
  }
  if (offsets[n] != entry_count) {
    fail_v2("offset array ends at " + std::to_string(offsets[n]) +
                " but the entry section holds " + std::to_string(entry_count),
            kHeaderBytes + 8 * n);
  }
  for (std::uint64_t v = 0; v < n; ++v) {
    for (std::uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      const std::uint64_t at = entries_base + 4 * i;
      if (entries[i] >= n) {
        fail_v2("neighbor " + std::to_string(entries[i]) +
                    " out of range for n=" + std::to_string(n),
                at);
      }
      if (entries[i] == v) {
        fail_v2("self-loop at vertex " + std::to_string(v), at);
      }
      if (i > offsets[v] && entries[i] <= entries[i - 1]) {
        fail_v2("adjacency list of vertex " + std::to_string(v) +
                    " not strictly ascending",
                at);
      }
    }
  }

  SnapshotContents contents;
  contents.multiplicative = get<double>(base, kOffMult);
  contents.additive = get<double>(base, kOffAdd);
  const char* mode_name =
      params_mode == 0 ? "none" : (params_mode == 1 ? "practical" : "paper");
  contents.params = rebuild_snapshot_params(
      mode_name, get<double>(base, kOffEps),
      static_cast<int>(get<std::int32_t>(base, kOffKappa)),
      get<double>(base, kOffRho), get<std::uint64_t>(base, kOffNEstimate),
      static_cast<Vertex>(n), contents.multiplicative, contents.additive,
      "offset " + std::to_string(kOffParamsMode));
  contents.csr = graph::Csr::view(
      std::span<const std::uint64_t>(offsets, n + 1),
      std::span<const Vertex>(entries, entry_count), file);
  return contents;
}

std::optional<core::Params> rebuild_snapshot_params(
    const std::string& mode, double eps, int kappa, double rho,
    std::uint64_t n_estimate, Vertex n, double mult, double add,
    const std::string& where) {
  if (mode == "none") return std::nullopt;
  std::optional<core::Params> params;
  // Syntactically valid but semantically out-of-range arguments (kappa < 2,
  // rho outside [1/kappa, 1/2), ...) throw from the Params factories; keep
  // the snapshot error contract by naming where they came from.
  try {
    params = core::Params::from_mode(mode, n, eps, kappa, rho, n_estimate);
  } catch (const std::exception& e) {
    throw std::runtime_error("oracle snapshot: invalid params at " + where +
                             ": " + e.what());
  }
  // Drift guard: the schedule recomputed from the stored arguments must
  // reproduce the recorded guarantee.  The comparison is relative, not
  // bit-exact: Params goes through std::pow, and libm results may differ
  // by an ulp between the saving and the loading machine — the recorded
  // pair stays authoritative for serving either way.  Real schedule drift
  // moves these values by far more than the tolerance.
  const auto differs = [](double recomputed, double recorded) {
    return std::abs(recomputed - recorded) >
           1e-9 * std::max(1.0, std::abs(recorded));
  };
  if (differs(params->stretch_multiplicative(), mult) ||
      differs(params->stretch_additive(), add)) {
    throw std::runtime_error(
        "oracle snapshot: recomputed guarantee (" +
        render_double(params->stretch_multiplicative()) + ", " +
        render_double(params->stretch_additive()) +
        ") disagrees with the recorded pair (" + render_double(mult) + ", " +
        render_double(add) + ")");
  }
  return params;
}

}  // namespace nas::apps
