#include "resil/checkpoint.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string_view>
#include <type_traits>

#include "forest/stats.h"
#include "io/checked_file.h"
#include "par/inject.h"
#include "resil/crc32c.h"

namespace esamr::resil {

namespace {

namespace fs = std::filesystem;

constexpr char magic_bytes[8] = {'E', 'S', 'A', 'M', 'R', 'C', 'K', 'P'};
constexpr std::size_t max_section_name = 23;  // + NUL in SectionDesc::name

/// Fixed on-disk header. All fields little-endian on every platform we
/// target; the layout is padding-free by construction (static_assert below).
struct Header {
  char magic[8];
  std::uint32_t version;
  std::uint32_t dim;
  std::uint32_t writer_ranks;
  std::uint32_t num_trees;
  std::uint64_t conn_id;
  std::uint64_t num_octants;
  std::uint64_t step;
  std::uint32_t num_sections;
  std::uint32_t header_crc;  ///< CRC32C of all preceding header bytes
};
static_assert(sizeof(Header) == 56 && std::is_trivially_copyable_v<Header>);
constexpr std::size_t header_crc_span = offsetof(Header, header_crc);

struct SectionDesc {
  char name[24];         ///< NUL-terminated section name
  std::uint64_t offset;  ///< absolute file offset of the payload
  std::uint64_t nbytes;
  std::uint32_t crc;  ///< CRC32C of the payload
  std::uint32_t aux;  ///< per-octant double count for field sections, else 0
};
static_assert(sizeof(SectionDesc) == 48 && std::is_trivially_copyable_v<SectionDesc>);

/// Section names the container itself uses; every other section is a
/// per-octant field, so no field may take one of these names. Full snapshots
/// carry the first two, deltas the last three.
constexpr std::array<std::string_view, 5> reserved_sections = {"ranges", "octants", "dmeta",
                                                               "dregions", "doctants"};
constexpr unsigned full_sections = 0b00011;   // bit i: reserved_sections[i] present
constexpr unsigned delta_sections = 0b11100;

template <int Dim>
using Trees = std::vector<std::vector<forest::Octant<Dim>>>;

/// Fully validated in-memory checkpoint (rank 0 only): a full snapshot, or a
/// delta whose `octants` are the leaves inside `regions` at write time.
template <int Dim>
struct Image {
  std::uint64_t step = 0;
  std::int64_t bytes_read = 0;
  std::uint32_t header_crc = 0;  ///< this file's header CRC (chain link)
  // Delta only: the chain link (seq of the full-snapshot anchor, seq and
  // header CRC of the immediate predecessor) and the change regions.
  std::uint64_t base_seq = 0;
  std::uint64_t prev_seq = 0;
  std::uint64_t prev_crc = 0;
  Trees<Dim> regions;
  Trees<Dim> octants;              ///< per-tree leaves, each a linear octree
  std::vector<NamedField> fields;  ///< values on `octants` in (tree, SFC) order
};

[[noreturn]] void corrupt(const std::string& path, const std::string& what) {
  throw CheckpointCorrupt("checkpoint " + path + ": " + what);
}

/// True iff `nbytes` is exactly `count` elements of `elem` bytes. Divides
/// instead of multiplying: a hostile `count` must not wrap the product.
bool holds_exactly(std::uint64_t nbytes, std::uint64_t count, std::uint64_t elem) {
  return nbytes % elem == 0 && nbytes / elem == count;
}

// Process-wide commit-path counters (see disk_fault_stats in the header).
std::atomic<std::int64_t> g_commits{0};
std::atomic<std::int64_t> g_write_retries{0};
std::atomic<std::int64_t> g_eio{0};
std::atomic<std::int64_t> g_torn{0};
std::atomic<std::int64_t> g_trunc{0};
std::atomic<std::int64_t> g_verify_failures{0};

/// Apply an injected disk fault to the assembled temp file before the
/// reread-verify pass. The damage site is hashed from (seed, step, attempt)
/// so it is deterministic yet fresh per retry.
void apply_disk_fault(const std::string& tmp, par::detail::DiskFault fault, std::uint64_t seed,
                      std::uint64_t step, std::uint64_t attempt) {
  const std::uint64_t h =
      par::detail::mix64(par::detail::mix64(seed ^ 0xd15cda7aULL ^ step) ^ attempt);
  const auto fsize = static_cast<std::uint64_t>(fs::file_size(tmp));
  if (fsize == 0) return;
  if (fault == par::detail::DiskFault::truncate) {
    ++g_trunc;
    fs::resize_file(tmp, fsize - (1 + h % fsize));
    return;
  }
  // torn_tail: garble up to 64 trailing bytes in place (a torn rewrite).
  ++g_torn;
  const std::uint64_t len = 1 + h % (fsize < 64 ? fsize : 64);
  const auto mask = static_cast<unsigned char>((h >> 29) | 1u);  // nonzero
  std::vector<unsigned char> tail(len);
  io::CheckedFile fp(tmp, "r+b");
  fp.seek(static_cast<long>(fsize - len));
  fp.read_exact(tail.data(), tail.size());
  for (unsigned char& b : tail) b = static_cast<unsigned char>(b ^ mask);
  fp.seek(static_cast<long>(fsize - len));
  fp.write(tail.data(), tail.size());
  fp.close();
}

/// Read a header and check its magic and CRC (the only checks that need no
/// knowledge of the forest it describes).
Header read_header(io::CheckedFile& fp, const std::string& path) {
  if (fp.size() < static_cast<long>(sizeof(Header))) corrupt(path, "file shorter than header");
  Header h{};
  fp.read_exact(&h, sizeof(h));
  if (std::memcmp(h.magic, magic_bytes, sizeof(magic_bytes)) != 0) corrupt(path, "bad magic");
  if (crc32c(&h, header_crc_span) != h.header_crc) corrupt(path, "header CRC mismatch");
  return h;
}

/// Decode a section of OctMsg records into per-tree leaves, rejecting every
/// record that cannot be a leaf of this connectivity: tree and level are
/// range-checked on the int32 before narrowing, records run in
/// non-decreasing tree order, and each tree's leaves form a linear octree.
template <int Dim>
Trees<Dim> decode_octants(const std::string& path, const std::string& name,
                          const std::vector<std::byte>& buf, int num_trees) {
  Trees<Dim> trees(static_cast<std::size_t>(num_trees));
  std::int32_t last_tree = 0;
  for (std::size_t i = 0; i < buf.size() / sizeof(forest::OctMsg); ++i) {
    forest::OctMsg m;
    std::memcpy(&m, buf.data() + i * sizeof(m), sizeof(m));
    if (m.tree < last_tree || m.tree >= num_trees) {
      corrupt(path, "'" + name + "' record " + std::to_string(i) + " names tree " +
                        std::to_string(m.tree) + " out of order or outside the connectivity");
    }
    if (m.level < 0 || m.level > forest::Octant<Dim>::max_level) {
      corrupt(path, "'" + name + "' record " + std::to_string(i) + " has level " +
                        std::to_string(m.level));
    }
    last_tree = m.tree;
    trees[static_cast<std::size_t>(m.tree)].push_back(forest::from_msg<Dim>(m));
  }
  for (std::size_t t = 0; t < trees.size(); ++t) {
    if (!forest::is_linear_octree(trees[t])) {
      corrupt(path, "'" + name + "' leaves of tree " + std::to_string(t) +
                        " are misaligned, outside the root or out of SFC order");
    }
  }
  return trees;
}

/// True iff the leaves of one tree's linear octree tile the whole root:
/// their volumes, counted in finest-level cells, sum to the root's.
template <int Dim>
bool covers_root(const std::vector<forest::Octant<Dim>>& leaves) {
  constexpr int max_level = forest::Octant<Dim>::max_level;
  std::uint64_t cells = 0;
  for (const auto& o : leaves) cells += std::uint64_t{1} << (Dim * (max_level - o.level));
  return cells == std::uint64_t{1} << (Dim * max_level);
}

/// Read and validate a full snapshot (`delta` false) or a delta checkpoint
/// on the calling rank (no communication): header, descriptor bounds, every
/// section CRC, section sizes, every octant record, and (full snapshots)
/// that every tree is covered. Restore, the ring
/// walk and the write-verify pass all read through here.
template <int Dim>
Image<Dim> load_image(const std::string& path, bool delta, std::uint64_t conn_id,
                      int num_trees) {
  io::CheckedFile fp(path, "rb");
  const long fsize = fp.size();
  const Header h = read_header(fp, path);
  if (h.version != checkpoint_format_version) {
    throw std::runtime_error("checkpoint " + path + ": unsupported format version " +
                             std::to_string(h.version));
  }
  if (h.dim != static_cast<std::uint32_t>(Dim) ||
      h.num_trees != static_cast<std::uint32_t>(num_trees) || h.conn_id != conn_id) {
    throw std::runtime_error("checkpoint " + path +
                             ": snapshot does not match this forest (dim/trees/connectivity)");
  }

  // The header CRC covers num_sections but not its plausibility: bound it by
  // the file before allocating the descriptor table.
  if (h.num_sections > (static_cast<std::uint64_t>(fsize) - sizeof(Header)) / sizeof(SectionDesc)) {
    corrupt(path, "section table extends past end of file");
  }
  std::vector<SectionDesc> descs(h.num_sections);
  fp.read_exact(descs.data(), descs.size() * sizeof(SectionDesc));
  const std::uint64_t data_start = sizeof(Header) + descs.size() * sizeof(SectionDesc);

  Image<Dim> img;
  img.step = h.step;
  img.bytes_read = fsize;
  img.header_crc = h.header_crc;
  unsigned seen = 0;
  std::uint64_t ranges_total = 0;
  for (const SectionDesc& d : descs) {
    const std::string name(d.name, strnlen(d.name, sizeof(d.name)));
    if (d.offset < data_start || d.nbytes > static_cast<std::uint64_t>(fsize) ||
        d.offset > static_cast<std::uint64_t>(fsize) - d.nbytes) {
      corrupt(path, "section '" + name + "' extends past end of file");
    }
    std::vector<std::byte> buf(d.nbytes);
    fp.seek(static_cast<long>(d.offset));
    fp.read_exact(buf.data(), buf.size());
    const std::uint32_t got = crc32c(buf.data(), buf.size());
    if (got != d.crc) {
      char msg[160];
      std::snprintf(msg, sizeof(msg),
                    "CRC mismatch in section '%s' at offset %llu (stored 0x%08x, computed 0x%08x)",
                    name.c_str(), static_cast<unsigned long long>(d.offset), d.crc, got);
      corrupt(path, msg);
    }
    const auto reserved = static_cast<std::size_t>(
        std::find(reserved_sections.begin(), reserved_sections.end(), name) -
        reserved_sections.begin());
    if (reserved < reserved_sections.size()) {
      if ((seen >> reserved) & 1u) corrupt(path, "duplicate section '" + name + "'");
      seen |= 1u << reserved;
    }
    if (name == "ranges") {
      if (d.nbytes != h.writer_ranks * sizeof(std::uint64_t)) {
        corrupt(path, "'ranges' section size does not match writer rank count");
      }
      std::vector<std::uint64_t> counts(h.writer_ranks);
      std::memcpy(counts.data(), buf.data(), buf.size());
      for (const std::uint64_t c : counts) ranges_total += c;
    } else if (name == "octants" || name == "doctants") {
      if (!holds_exactly(d.nbytes, h.num_octants, sizeof(forest::OctMsg))) {
        corrupt(path, "'" + name + "' section size does not match octant count");
      }
      img.octants = decode_octants<Dim>(path, name, buf, num_trees);
    } else if (name == "dregions") {
      if (d.nbytes % sizeof(forest::OctMsg) != 0) {
        corrupt(path, "'dregions' section size is not a whole record count");
      }
      img.regions = decode_octants<Dim>(path, name, buf, num_trees);
    } else if (name == "dmeta") {
      if (d.nbytes != 3 * sizeof(std::uint64_t)) corrupt(path, "'dmeta' section has wrong size");
      std::uint64_t m[3];
      std::memcpy(m, buf.data(), sizeof(m));
      img.base_seq = m[0];
      img.prev_seq = m[1];
      img.prev_crc = m[2];
    } else {
      if (d.aux == 0 || !holds_exactly(d.nbytes, h.num_octants, d.aux * sizeof(double))) {
        corrupt(path, "field section '" + name + "' has inconsistent size");
      }
      NamedField f;
      f.name = name;
      f.per_oct = static_cast<int>(d.aux);
      f.data.resize(h.num_octants * d.aux);
      std::memcpy(f.data.data(), buf.data(), buf.size());
      img.fields.push_back(std::move(f));
    }
  }
  if (seen != (delta ? delta_sections : full_sections)) {
    corrupt(path, delta ? "missing or foreign sections for a delta ('dmeta', 'dregions', "
                          "'doctants')"
                        : "missing or foreign sections for a full snapshot ('ranges', 'octants')");
  }
  if (!delta && ranges_total != h.num_octants) {
    corrupt(path, "'ranges' does not sum to the octant count");
  }
  if (!delta && !std::all_of(img.octants.begin(), img.octants.end(), covers_root<Dim>)) {
    corrupt(path, "'octants' leave part of a tree uncovered");
  }
  return img;
}

/// The header CRC of an existing ring entry (the chain link the next delta
/// must carry). False when the file cannot be read or its header is bad.
bool peek_header_crc(const std::string& path, std::uint32_t& out) {
  try {
    io::CheckedFile fp(path, "rb");
    out = read_header(fp, path).header_crc;
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

/// Rank-0 atomic publish with write-then-reread-verify: assemble under a
/// temp name via `write_body`, reread the temp through `verify` (which must
/// throw on bad bytes — write_image passes load_image, the validation
/// restore uses), and only then rename over the target. Injected
/// disk faults (torn tail, truncation, transient EIO) are keyed on
/// (seed, step, attempt), so each retry draws a fresh hash and the bounded
/// loop converges; persistent failure throws CheckpointCorrupt.
template <typename WriteBody, typename Verify>
void publish_verified(const std::string& path, std::uint64_t step, const par::InjectConfig& inj,
                      WriteBody&& write_body, Verify&& verify) {
  const std::string tmp = path + ".tmp";
  constexpr int max_write_attempts = 5;
  for (int attempt = 0;; ++attempt) {
    const auto fault = par::detail::disk_fault(inj, step, static_cast<std::uint64_t>(attempt));
    if (fault == par::detail::DiskFault::eio) {
      // The device refused the write; nothing was committed this attempt.
      ++g_eio;
      if (attempt + 1 >= max_write_attempts) {
        corrupt(path, "persistent EIO while writing snapshot");
      }
      ++g_write_retries;
      continue;
    }
    {
      io::CheckedFile fp(tmp, "wb");
      write_body(fp);
      fp.close();
    }
    if (fault != par::detail::DiskFault::none) {
      apply_disk_fault(tmp, fault, inj.seed, step, static_cast<std::uint64_t>(attempt));
    }
    try {
      verify(tmp);
      break;  // the bytes on disk round-trip every CRC: safe to publish
    } catch (const std::runtime_error&) {
      // CheckpointCorrupt or a short read: the attempt's bytes are bad.
      ++g_verify_failures;
      if (attempt + 1 >= max_write_attempts) {
        std::remove(tmp.c_str());
        corrupt(path, "write verification failed after " + std::to_string(max_write_attempts) +
                          " attempts");
      }
      ++g_write_retries;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("checkpoint publish: cannot rename " + tmp + " to " + path);
  }
  ++g_commits;
}

/// Pack restore metadata (step, bytes, field names/widths) for the bcast
/// that tells non-root ranks what the snapshot contains.
template <int Dim>
std::vector<std::byte> pack_meta(const Image<Dim>& img) {
  std::vector<std::byte> out;
  const auto put = [&out](const void* p, std::size_t n) {
    const auto* b = static_cast<const std::byte*>(p);
    out.insert(out.end(), b, b + n);
  };
  const auto put_u64 = [&put](std::uint64_t v) { put(&v, sizeof(v)); };
  put_u64(img.step);
  put_u64(static_cast<std::uint64_t>(img.bytes_read));
  put_u64(img.fields.size());
  for (const NamedField& f : img.fields) {
    put_u64(static_cast<std::uint64_t>(f.per_oct));
    put_u64(f.name.size());
    put(f.name.data(), f.name.size());
  }
  return out;
}

struct Meta {
  std::uint64_t step = 0;
  std::int64_t bytes_read = 0;
  std::vector<std::pair<std::string, int>> fields;  // (name, per_oct)
};

Meta unpack_meta(const std::vector<std::byte>& in) {
  std::size_t pos = 0;
  const auto get = [&](void* p, std::size_t n) {
    std::memcpy(p, in.data() + pos, n);
    pos += n;
  };
  const auto get_u64 = [&get] {
    std::uint64_t v;
    get(&v, sizeof(v));
    return v;
  };
  Meta m;
  m.step = get_u64();
  m.bytes_read = static_cast<std::int64_t>(get_u64());
  const std::uint64_t nf = get_u64();
  for (std::uint64_t i = 0; i < nf; ++i) {
    const int per_oct = static_cast<int>(get_u64());
    std::string name(get_u64(), '\0');
    get(name.data(), name.size());
    m.fields.emplace_back(std::move(name), per_oct);
  }
  return m;
}

/// The elastic half of restore: rank 0 holds the full snapshot; everyone
/// builds a forest (empty away from rank 0) and the existing partition path
/// redistributes octants and interleaved fields to the canonical SFC split.
template <int Dim>
Restored<Dim> distribute(par::Comm& comm, const forest::Connectivity<Dim>& conn,
                         Image<Dim>&& img) {
  std::vector<std::byte> meta;
  if (comm.rank() == 0) meta = pack_meta(img);
  comm.bcast_bytes(meta, 0);
  const Meta m = unpack_meta(meta);

  Trees<Dim> trees = comm.rank() == 0 ? std::move(img.octants)
                                      : Trees<Dim>(static_cast<std::size_t>(conn.num_trees()));
  std::size_t n0 = 0;
  for (const auto& leaves : trees) n0 += leaves.size();
  Restored<Dim> out{forest::Forest<Dim>::from_local_leaves(comm, &conn, std::move(trees)),
                    {},
                    m.step,
                    m.bytes_read};

  int total_per_oct = 0;
  for (const auto& [name, w] : m.fields) total_per_oct += w;
  if (total_per_oct == 0) {
    out.forest.partition();
    return out;
  }

  // Interleave all fields per octant so one partition_payload call carries
  // every field with the octants (a second call would move nothing: the
  // partition is already canonical after the first).
  std::vector<double> payload(n0 * static_cast<std::size_t>(total_per_oct));
  if (comm.rank() == 0) {
    std::size_t off = 0;
    for (const NamedField& f : img.fields) {
      const auto w = static_cast<std::size_t>(f.per_oct);
      for (std::size_t i = 0; i < n0; ++i) {
        std::copy_n(f.data.begin() + static_cast<std::ptrdiff_t>(i * w), w,
                    payload.begin() +
                        static_cast<std::ptrdiff_t>(i * static_cast<std::size_t>(total_per_oct) +
                                                    off));
      }
      off += w;
    }
  }
  out.forest.partition_payload(nullptr, total_per_oct, payload);

  const auto n_local = static_cast<std::size_t>(out.forest.num_local());
  std::size_t off = 0;
  for (const auto& [name, w] : m.fields) {
    NamedField f;
    f.name = name;
    f.per_oct = w;
    f.data.resize(n_local * static_cast<std::size_t>(w));
    for (std::size_t i = 0; i < n_local; ++i) {
      std::copy_n(payload.begin() +
                      static_cast<std::ptrdiff_t>(i * static_cast<std::size_t>(total_per_oct) +
                                                  off),
                  static_cast<std::size_t>(w),
                  f.data.begin() + static_cast<std::ptrdiff_t>(i * static_cast<std::size_t>(w)));
    }
    off += static_cast<std::size_t>(w);
    out.fields.push_back(std::move(f));
  }
  return out;
}

std::uint64_t parse_seq(const fs::path& p) {
  const std::string stem = p.stem().string();  // "ckpt-<seq>"
  return std::stoull(stem.substr(5));
}

/// Reject field names a descriptor cannot hold or the container reserves,
/// and fields whose size does not match the local forest.
void check_fields(const std::vector<NamedField>& fields, std::size_t n_local) {
  for (const NamedField& fld : fields) {
    if (fld.name.empty() || fld.name.size() > max_section_name ||
        std::find(reserved_sections.begin(), reserved_sections.end(), fld.name) !=
            reserved_sections.end()) {
      throw std::runtime_error("checkpoint: bad field name '" + fld.name + "'");
    }
    if (fld.per_oct <= 0 || fld.data.size() != n_local * static_cast<std::size_t>(fld.per_oct)) {
      throw std::runtime_error("checkpoint: field '" + fld.name +
                               "' size does not match the local forest");
    }
  }
}

/// One payload of a checkpoint file.
struct Section {
  std::string_view name;
  const void* data;
  std::uint64_t nbytes;
  std::uint32_t aux;  ///< per-octant double count for field sections, else 0
};

/// Collective: the one container writer behind full and delta checkpoints.
/// Every rank contributes `octs` (its leaves to store, in local SFC order)
/// and `fields` (their values, same order); rank 0 concatenates both in rank
/// order — the global SFC order — and lays out the replicated `head`
/// sections, the octant section and one section per field, each sealed with
/// its CRC32C, then publishes the file at `path` (rank 0 only) through
/// write-then-reread-verify.
template <int Dim>
void write_image(const forest::Forest<Dim>& f, std::uint64_t conn_id, std::uint64_t step,
                 bool delta, std::vector<Section> head, const std::vector<forest::OctMsg>& octs,
                 const std::vector<NamedField>& fields, const std::string& path) {
  par::Comm& comm = f.comm();
  // The field vectors are rank-owned while the snapshot is gathered: every
  // byte must travel through the allgatherv, never via direct peer reads.
  std::vector<par::check::RegionGuard> field_guards;
  if (par::check::enabled(comm)) {
    field_guards.reserve(fields.size());
    for (const NamedField& fld : fields) {
      field_guards.emplace_back(comm, fld.data.data(), fld.data.size() * sizeof(double),
                                "checkpoint field");
    }
  }
  const auto oct_parts = comm.allgatherv(octs);
  std::vector<std::vector<std::vector<double>>> field_parts;
  field_parts.reserve(fields.size());
  for (const NamedField& fld : fields) field_parts.push_back(comm.allgatherv(fld.data));

  if (comm.rank() == 0) {
    const auto concat = [](const auto& parts) {
      std::remove_cvref_t<decltype(parts.front())> all;
      for (const auto& part : parts) all.insert(all.end(), part.begin(), part.end());
      return all;
    };
    const std::vector<forest::OctMsg> octants = concat(oct_parts);
    std::vector<std::vector<double>> field_data;
    for (const auto& parts : field_parts) field_data.push_back(concat(parts));
    head.push_back({delta ? "doctants" : "octants", octants.data(),
                    octants.size() * sizeof(forest::OctMsg), 0});
    for (std::size_t i = 0; i < fields.size(); ++i) {
      head.push_back({fields[i].name, field_data[i].data(), field_data[i].size() * sizeof(double),
                      static_cast<std::uint32_t>(fields[i].per_oct)});
    }

    Header h{};
    std::memcpy(h.magic, magic_bytes, sizeof(magic_bytes));
    h.version = checkpoint_format_version;
    h.dim = Dim;
    h.writer_ranks = static_cast<std::uint32_t>(comm.size());
    h.num_trees = static_cast<std::uint32_t>(f.num_trees());
    h.conn_id = conn_id;
    h.num_octants = octants.size();
    h.step = step;
    h.num_sections = static_cast<std::uint32_t>(head.size());
    h.header_crc = crc32c(&h, header_crc_span);

    std::vector<SectionDesc> descs;
    std::uint64_t offset = sizeof(Header) + head.size() * sizeof(SectionDesc);
    for (const Section& sec : head) {
      SectionDesc d{};
      std::snprintf(d.name, sizeof(d.name), "%.*s", static_cast<int>(sec.name.size()),
                    sec.name.data());
      d.offset = offset;
      d.nbytes = sec.nbytes;
      d.crc = crc32c(sec.data, sec.nbytes);
      d.aux = sec.aux;
      descs.push_back(d);
      offset += sec.nbytes;
    }

    publish_verified(
        path, step, comm.inject_config(),
        [&](io::CheckedFile& fp) {
          fp.write(&h, sizeof(h));
          fp.write(descs.data(), descs.size() * sizeof(SectionDesc));
          for (const Section& sec : head) fp.write(sec.data, sec.nbytes);
        },
        [&](const std::string& tmp) { load_image<Dim>(tmp, delta, conn_id, f.num_trees()); });
  }
  comm.barrier();  // checkpoint completion is a collective postcondition
}

/// Replay one validated delta on top of the in-memory base image: drop every
/// base leaf covered by a delta region, then merge the delta's leaves (and
/// their field values) back in by SFC order, tree by tree. The writer
/// guarantees a delta's leaves are exactly the current leaves inside its
/// regions, so the merge result is the full leaf sequence at the delta's
/// step; a merge that is not a linear octree is rejected as corrupt. The
/// merge is built aside and moved into `img` only once every tree passed, so
/// a rejected delta leaves the base image intact for the chain's fallback.
template <int Dim>
void apply_delta(Image<Dim>& img, const Image<Dim>& d, const std::string& path) {
  using Oct = forest::Octant<Dim>;
  if (img.fields.size() != d.fields.size()) {
    corrupt(path, "delta field set does not match the base snapshot");
  }
  for (std::size_t i = 0; i < d.fields.size(); ++i) {
    if (img.fields[i].name != d.fields[i].name ||
        img.fields[i].per_oct != d.fields[i].per_oct) {
      corrupt(path, "delta field '" + d.fields[i].name + "' does not match the base snapshot");
    }
  }

  std::vector<std::vector<double>> mdata(img.fields.size());
  const auto take = [&](const std::vector<NamedField>& flds, std::size_t i) {
    for (std::size_t fi = 0; fi < flds.size(); ++fi) {
      const auto w = static_cast<std::size_t>(flds[fi].per_oct);
      mdata[fi].insert(mdata[fi].end(),
                       flds[fi].data.begin() + static_cast<std::ptrdiff_t>(i * w),
                       flds[fi].data.begin() + static_cast<std::ptrdiff_t>((i + 1) * w));
    }
  };
  Trees<Dim> mtrees(img.octants.size());
  std::size_t ib = 0, id = 0;  // leaf indices into the base / delta fields
  for (std::size_t t = 0; t < img.octants.size(); ++t) {
    const std::vector<Oct>& reg = d.regions[t];  // sorted and disjoint (decoded)
    const std::vector<Oct>& base = img.octants[t];
    const std::vector<Oct>& leaves = d.octants[t];
    const auto covered = [&](const Oct& o) {
      const auto it = std::upper_bound(reg.begin(), reg.end(), o);
      if (it != reg.end() && o.contains(*it) && o.level < it->level) {
        // A base leaf strictly coarser than a recorded region means the
        // writer's change tracking missed a refinement under it.
        corrupt(path, "delta region finer than a base leaf (incomplete tracking)");
      }
      return it != reg.begin() && std::prev(it)->contains(o);
    };
    std::vector<Oct>& merged = mtrees[t];
    merged.reserve(base.size() + leaves.size());
    std::size_t b = 0, e = 0;
    while (b < base.size() || e < leaves.size()) {
      if (b < base.size() && covered(base[b])) {
        ++b;  // replaced by the delta's view of this region
        ++ib;
      } else if (e < leaves.size() && (b == base.size() || leaves[e] < base[b])) {
        merged.push_back(leaves[e++]);
        take(d.fields, id++);
      } else {
        merged.push_back(base[b++]);
        take(img.fields, ib++);
      }
    }
    if (!forest::is_linear_octree(merged) || !covers_root(merged)) {
      corrupt(path, "delta leaves do not merge into a complete linear octree");
    }
  }
  img.octants = std::move(mtrees);
  for (std::size_t fi = 0; fi < img.fields.size(); ++fi) {
    img.fields[fi].data = std::move(mdata[fi]);
  }
}

}  // namespace

template <int Dim>
std::uint64_t connectivity_id(const forest::Connectivity<Dim>& conn) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(Dim));
  mix(static_cast<std::uint64_t>(conn.num_trees()));
  for (const auto& tv : conn.tree_to_vertex()) {
    for (const int v : tv) mix(static_cast<std::uint64_t>(v));
  }
  for (const auto& vc : conn.vertex_coords()) {
    for (const double c : vc) mix(std::bit_cast<std::uint64_t>(c));
  }
  for (int t = 0; t < conn.num_trees(); ++t) {
    for (int f = 0; f < 2 * Dim; ++f) {
      const auto& fc = conn.face_connection(t, f);
      mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(fc.tree)));
      mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(fc.face)));
      for (int a = 0; a < 3; ++a) {
        mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(fc.xform.perm[a])));
        mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(fc.xform.sign[a])));
        mix(static_cast<std::uint64_t>(fc.xform.off[a]));
      }
    }
  }
  return h;
}

template <int Dim>
void write_checkpoint(const forest::Forest<Dim>& f, std::uint64_t conn_id, std::uint64_t step,
                      const std::vector<NamedField>& fields, const std::string& path) {
  check_fields(fields, static_cast<std::size_t>(f.num_local()));
  std::vector<forest::OctMsg> local;
  local.reserve(static_cast<std::size_t>(f.num_local()));
  f.for_each_local([&local](int t, const forest::Octant<Dim>& o) {
    local.push_back(forest::to_msg(t, o));
  });
  std::vector<std::uint64_t> counts;
  for (const std::int64_t c : f.global_counts()) counts.push_back(static_cast<std::uint64_t>(c));
  write_image(f, conn_id, step, false,
              {{"ranges", counts.data(), counts.size() * sizeof(std::uint64_t), 0}}, local, fields,
              path);
}

template <int Dim>
Restored<Dim> restore_checkpoint(par::Comm& comm, const forest::Connectivity<Dim>& conn,
                                 std::uint64_t conn_id, const std::string& path) {
  Image<Dim> img;
  if (comm.rank() == 0) img = load_image<Dim>(path, false, conn_id, conn.num_trees());
  return distribute<Dim>(comm, conn, std::move(img));
}

CheckpointRing::CheckpointRing(std::string dir, int keep) : dir_(std::move(dir)), keep_(keep) {
  if (keep_ < 1) throw std::runtime_error("CheckpointRing: keep must be >= 1");
  fs::create_directories(dir_);
}

std::vector<std::string> CheckpointRing::entries() const {
  std::vector<fs::path> found;
  for (const auto& e : fs::directory_iterator(dir_)) {
    const fs::path& p = e.path();
    if ((p.extension() == ".esnap" || p.extension() == ".edelta") &&
        p.stem().string().rfind("ckpt-", 0) == 0) {
      found.push_back(p);
    }
  }
  std::sort(found.begin(), found.end(),
            [](const fs::path& a, const fs::path& b) { return parse_seq(a) < parse_seq(b); });
  std::vector<std::string> out;
  out.reserve(found.size());
  for (const auto& p : found) out.push_back(p.string());
  return out;
}

bool CheckpointRing::is_delta(const std::string& path) {
  return fs::path(path).extension() == ".edelta";
}

std::string CheckpointRing::newest() const {
  const auto all = entries();
  return all.empty() ? std::string() : all.back();
}

std::string CheckpointRing::next_path(bool delta) const {
  const auto all = entries();
  const std::uint64_t seq = all.empty() ? 0 : parse_seq(fs::path(all.back())) + 1;
  char name[32];
  std::snprintf(name, sizeof(name), "ckpt-%08llu.%s", static_cast<unsigned long long>(seq),
                delta ? "edelta" : "esnap");
  return (fs::path(dir_) / name).string();
}

void CheckpointRing::quarantine_newest() {
  const std::string p = newest();
  if (p.empty()) return;
  fs::rename(p, p + ".bad");
}

void CheckpointRing::prune() {
  const auto all = entries();
  // The newest full snapshot anchors the live delta chain: neither it nor
  // anything newer may be pruned, or restore_latest_chain loses its base.
  std::size_t protect = all.size();
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (!is_delta(all[i])) protect = i;
  }
  std::size_t first = 0;
  while (static_cast<int>(all.size() - first) > keep_ && first < protect) {
    fs::remove(all[first]);
    ++first;
  }
}

template <int Dim>
void write_checkpoint_ring(const forest::Forest<Dim>& f, std::uint64_t conn_id,
                           std::uint64_t step, const std::vector<NamedField>& fields,
                           CheckpointRing& ring) {
  par::Comm& comm = f.comm();
  const std::string path = comm.rank() == 0 ? ring.next_path(false) : std::string();
  write_checkpoint(f, conn_id, step, fields, path);
  if (comm.rank() == 0) ring.prune();
}

bool ring_probe(par::Comm& comm, const CheckpointRing& ring) {
  int has = 0;
  if (comm.rank() == 0) has = ring.entries().empty() ? 0 : 1;
  return comm.bcast(has, 0) != 0;
}

template <int Dim>
void write_delta_checkpoint_ring(const forest::Forest<Dim>& f, std::uint64_t conn_id,
                                 std::uint64_t step, const std::vector<NamedField>& fields,
                                 forest::DeltaSet<Dim>& delta, CheckpointRing& ring) {
  using Oct = forest::Octant<Dim>;
  par::Comm& comm = f.comm();
  check_fields(fields, static_cast<std::size_t>(f.num_local()));

  // Rank 0 looks up the chain anchor (the newest full snapshot) and the
  // predecessor link; the go/no-go decision is collective so every rank
  // takes the same branch.
  std::array<std::uint64_t, 4> link{0, 0, 0, 0};  // has_anchor, base, prev, prev_crc
  if (comm.rank() == 0) {
    const auto paths = ring.entries();
    std::string anchor;
    for (const auto& p : paths) {
      if (!CheckpointRing::is_delta(p)) anchor = p;
    }
    if (!anchor.empty()) {
      std::uint32_t crc = 0;
      if (peek_header_crc(paths.back(), crc)) {
        link = {1, parse_seq(fs::path(anchor)), parse_seq(fs::path(paths.back())), crc};
      }
    }
  }
  link = comm.bcast(link, 0);
  const bool want_full = link[0] == 0 || delta.overflow || !forest::incremental_enabled();
  if (comm.allreduce(static_cast<int>(want_full), par::ReduceOp::logical_or) != 0) {
    write_checkpoint_ring<Dim>(f, conn_id, step, fields, ring);
    return;
  }

  forest::DeltaSet<Dim> global = delta.replicated(comm);
  if (global.regions.size() != static_cast<std::size_t>(f.num_trees())) {
    throw std::runtime_error("write_delta_checkpoint_ring: delta tree count mismatch");
  }

  // Local leaves inside the replicated regions, in local SFC order — the
  // rank concatenation in write_image is therefore the global SFC order —
  // plus the field values on exactly those leaves.
  std::vector<forest::OctMsg> doct, regions;
  std::vector<NamedField> dfields;
  for (const NamedField& fld : fields) dfields.push_back({fld.name, fld.per_oct, {}});
  std::size_t tree_base = 0;
  for (int t = 0; t < f.num_trees(); ++t) {
    const std::vector<Oct>& leaves = f.tree(t);
    for (const Oct& r : global.regions[static_cast<std::size_t>(t)]) {
      regions.push_back(forest::to_msg(t, r));
      const auto [lo, hi] = forest::overlapping_range<Dim>(leaves, r);
      for (std::size_t i = lo; i < hi; ++i) {
        const Oct& o = leaves[i];
        if (!r.contains(o)) {
          // A leaf coarser than a region it overlaps means change tracking
          // missed a coarsening: the delta cannot represent this step.
          throw std::runtime_error(
              "write_delta_checkpoint_ring: leaf coarser than its delta region");
        }
        doct.push_back(forest::to_msg(t, o));
        const std::size_t li = tree_base + i;
        for (std::size_t fi = 0; fi < fields.size(); ++fi) {
          const auto w = static_cast<std::size_t>(fields[fi].per_oct);
          dfields[fi].data.insert(dfields[fi].data.end(),
                                  fields[fi].data.begin() + static_cast<std::ptrdiff_t>(li * w),
                                  fields[fi].data.begin() +
                                      static_cast<std::ptrdiff_t>((li + 1) * w));
        }
      }
    }
    tree_base += leaves.size();
  }

  const std::uint64_t dmeta[3] = {link[1], link[2], link[3]};
  const std::string path = comm.rank() == 0 ? ring.next_path(true) : std::string();
  write_image(f, conn_id, step, true,
              {{"dmeta", dmeta, sizeof(dmeta), 0},
               {"dregions", regions.data(), regions.size() * sizeof(forest::OctMsg), 0}},
              doct, dfields, path);
  if (comm.rank() == 0) {
    forest::op_stats().ckpt_delta_bytes += static_cast<std::int64_t>(fs::file_size(path));
    ring.prune();
  }
}

template <int Dim>
Restored<Dim> restore_latest_chain(par::Comm& comm, const forest::Connectivity<Dim>& conn,
                                   std::uint64_t conn_id, CheckpointRing& ring, int* fallbacks) {
  // Rank 0 finds the newest full snapshot that validates (quarantining
  // corrupt ones), then replays the delta chain above it in sequence order.
  // The chain stops at the first corrupt delta (quarantined) or broken
  // (base, prev, prev-CRC) link — later deltas are orphaned and the state
  // restored is the longest valid prefix.
  Image<Dim> img;
  std::uint64_t status = 1;  // 0 = ok, 1 = empty ring, 2 = no valid full snapshot
  std::string err;
  int falls = 0;
  if (comm.rank() == 0) {
    for (;;) {
      const auto paths = ring.entries();
      std::string anchor;
      for (const auto& p : paths) {
        if (!CheckpointRing::is_delta(p)) anchor = p;
      }
      if (anchor.empty()) {
        if (paths.empty() && err.empty()) {
          err = "checkpoint ring empty: " + ring.dir();
        } else {
          status = 2;
          if (err.empty()) err = "no full snapshot in ring: " + ring.dir();
        }
        break;
      }
      try {
        img = load_image<Dim>(anchor, false, conn_id, conn.num_trees());
      } catch (const CheckpointCorrupt& e) {
        err = e.what();
        fs::rename(anchor, anchor + ".bad");
        ++falls;
        continue;  // fall back to the next-older full snapshot
      }
      status = 0;
      const std::uint64_t anchor_seq = parse_seq(fs::path(anchor));
      std::uint64_t prev_seq = anchor_seq;
      std::uint32_t prev_crc = img.header_crc;
      for (const auto& p : paths) {
        if (!CheckpointRing::is_delta(p)) continue;
        const std::uint64_t seq = parse_seq(fs::path(p));
        if (seq < anchor_seq) continue;  // leftovers of an older chain
        try {
          const Image<Dim> d = load_image<Dim>(p, true, conn_id, conn.num_trees());
          if (d.base_seq != anchor_seq || d.prev_seq != prev_seq || d.prev_crc != prev_crc) {
            break;  // orphaned tail of a different chain: keep the prefix
          }
          apply_delta<Dim>(img, d, p);
          img.step = d.step;
          img.bytes_read += d.bytes_read;
          prev_seq = seq;
          prev_crc = d.header_crc;
        } catch (const CheckpointCorrupt&) {
          fs::rename(p, p + ".bad");
          ++falls;
          break;  // everything after the corrupt link is unreachable
        }
      }
      break;
    }
  }
  status = comm.bcast(status, 0);
  falls = comm.bcast(falls, 0);
  if (fallbacks != nullptr) *fallbacks = falls;
  if (status == 1) {
    throw std::runtime_error(comm.rank() == 0 ? err : "checkpoint ring empty");
  }
  if (status == 2) {
    throw CheckpointCorrupt(comm.rank() == 0 ? err : "no full snapshot passed CRC validation");
  }
  return distribute<Dim>(comm, conn, std::move(img));
}

const char* corrupt_kind_name(CorruptKind k) {
  switch (k) {
    case CorruptKind::byte_flip: return "byte_flip";
    case CorruptKind::truncate_tail: return "truncate_tail";
    case CorruptKind::torn_write: return "torn_write";
  }
  return "?";
}

void corrupt_checkpoint(const std::string& path, CorruptKind kind, std::uint64_t seed) {
  long fsize = 0;
  Header h{};
  {
    io::CheckedFile fp(path, "rb");
    fsize = fp.size();
    fp.read_exact(&h, sizeof(h));
  }
  const long data_start =
      static_cast<long>(sizeof(Header) + h.num_sections * sizeof(SectionDesc));
  if (fsize <= data_start) {
    throw std::runtime_error("corrupt_checkpoint: no data region in " + path);
  }
  const long data_len = fsize - data_start;
  const std::uint64_t hash = par::detail::mix64(seed ^ 0xc0440001ULL);

  switch (kind) {
    case CorruptKind::byte_flip: {
      const long off = data_start + static_cast<long>(hash % static_cast<std::uint64_t>(data_len));
      const auto bit = static_cast<unsigned char>(1u << ((hash >> 37) % 8));
      io::CheckedFile fp(path, "r+b");
      unsigned char byte = 0;
      fp.seek(off);
      fp.read_exact(&byte, 1);
      byte = static_cast<unsigned char>(byte ^ bit);
      fp.seek(off);
      fp.write(&byte, 1);
      fp.close();
      break;
    }
    case CorruptKind::truncate_tail: {
      // Cut into the data region so some section must extend past EOF.
      const long drop = 1 + static_cast<long>(hash % static_cast<std::uint64_t>(data_len));
      fs::resize_file(path, static_cast<std::uint64_t>(fsize - drop));
      break;
    }
    case CorruptKind::torn_write: {
      // XOR a hashed-length tail run with a nonzero mask: same file size,
      // garbled final section — the torn-rewrite signature.
      const long len =
          1 + static_cast<long>(hash % static_cast<std::uint64_t>(std::min<long>(data_len, 64)));
      const auto mask = static_cast<unsigned char>((hash >> 29) | 1u);
      std::vector<unsigned char> tail(static_cast<std::size_t>(len));
      io::CheckedFile fp(path, "r+b");
      fp.seek(fsize - len);
      fp.read_exact(tail.data(), tail.size());
      for (unsigned char& b : tail) b = static_cast<unsigned char>(b ^ mask);
      fp.seek(fsize - len);
      fp.write(tail.data(), tail.size());
      fp.close();
      break;
    }
  }
}

DiskFaultStats disk_fault_stats() {
  DiskFaultStats s;
  s.commits = g_commits.load();
  s.write_retries = g_write_retries.load();
  s.eio_injected = g_eio.load();
  s.torn_injected = g_torn.load();
  s.trunc_injected = g_trunc.load();
  s.verify_failures = g_verify_failures.load();
  return s;
}

void reset_disk_fault_stats() {
  g_commits = 0;
  g_write_retries = 0;
  g_eio = 0;
  g_torn = 0;
  g_trunc = 0;
  g_verify_failures = 0;
}

template std::uint64_t connectivity_id<2>(const forest::Connectivity<2>&);
template std::uint64_t connectivity_id<3>(const forest::Connectivity<3>&);
template void write_checkpoint<2>(const forest::Forest<2>&, std::uint64_t, std::uint64_t,
                                  const std::vector<NamedField>&, const std::string&);
template void write_checkpoint<3>(const forest::Forest<3>&, std::uint64_t, std::uint64_t,
                                  const std::vector<NamedField>&, const std::string&);
template Restored<2> restore_checkpoint<2>(par::Comm&, const forest::Connectivity<2>&,
                                           std::uint64_t, const std::string&);
template Restored<3> restore_checkpoint<3>(par::Comm&, const forest::Connectivity<3>&,
                                           std::uint64_t, const std::string&);
template void write_checkpoint_ring<2>(const forest::Forest<2>&, std::uint64_t, std::uint64_t,
                                       const std::vector<NamedField>&, CheckpointRing&);
template void write_checkpoint_ring<3>(const forest::Forest<3>&, std::uint64_t, std::uint64_t,
                                       const std::vector<NamedField>&, CheckpointRing&);
template void write_delta_checkpoint_ring<2>(const forest::Forest<2>&, std::uint64_t,
                                             std::uint64_t, const std::vector<NamedField>&,
                                             forest::DeltaSet<2>&, CheckpointRing&);
template void write_delta_checkpoint_ring<3>(const forest::Forest<3>&, std::uint64_t,
                                             std::uint64_t, const std::vector<NamedField>&,
                                             forest::DeltaSet<3>&, CheckpointRing&);
template Restored<2> restore_latest_chain<2>(par::Comm&, const forest::Connectivity<2>&,
                                             std::uint64_t, CheckpointRing&, int*);
template Restored<3> restore_latest_chain<3>(par::Comm&, const forest::Connectivity<3>&,
                                             std::uint64_t, CheckpointRing&, int*);

}  // namespace esamr::resil
