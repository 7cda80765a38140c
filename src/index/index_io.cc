#include "index/index_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/mmap_region.h"
#include "common/packed_ints.h"
#include "index/index_format.h"

namespace graft::index {

namespace {

GRAFT_DEFINE_FAILPOINT(g_fp_save_open_tmp, "index_io.save.open_tmp");
GRAFT_DEFINE_FAILPOINT(g_fp_save_header, "index_io.save.header");
GRAFT_DEFINE_FAILPOINT(g_fp_save_term, "index_io.save.term");
GRAFT_DEFINE_FAILPOINT(g_fp_save_before_sync, "index_io.save.before_sync");
GRAFT_DEFINE_FAILPOINT(g_fp_save_before_rename,
                       "index_io.save.before_rename");
GRAFT_DEFINE_FAILPOINT(g_fp_save_before_dirsync,
                       "index_io.save.before_dirsync");
GRAFT_DEFINE_FAILPOINT(g_fp_load_open, "index_io.load.open");
GRAFT_DEFINE_FAILPOINT(g_fp_load_verify, "index_io.load.verify");

static_assert(kFmtV5BlockSize == PostingList::kBlockSize,
              "packed block granularity must match the block-max blocks");

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

uint64_t LoadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

// Upper bound used to reject corrupt counts whose payloads are validated
// element-by-element rather than as one block read.
constexpr uint64_t kSanityCap = uint64_t{1} << 36;

// Fsyncs the directory containing `path` so the rename itself is durable
// (a crash after rename but before the directory hits disk could otherwise
// resurrect the old generation — acceptable — or lose the entry on some
// filesystems — not acceptable).
Status SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open directory for fsync: " + dir);
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::IOError("directory fsync failed: " + dir);
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// v5 sectioned layout (normative spec: docs/index-format.md).
//
// The file is canonical: sections appear in FmtV5Section order, each
// starting on an 8-byte boundary (zero padding between the previous
// section's CRC and the next section; the loader verifies the pad bytes),
// with the section table's {offset, length} pairs patched in by fseek once
// the section positions are known. Canonical placement means the loader
// can account for EVERY byte of the file — prologue by direct comparison,
// table and sections by CRC32C, padding by zero check — which is what
// keeps the exhaustive bit-flip corruption fuzz meaningful for v5.

constexpr uint64_t kV5PrologueBytes = 8;
constexpr uint64_t kV5TableBytes =
    4 + uint64_t{kFmtV5SectionCount} * 16 + 4;  // count + entries + crc
constexpr uint64_t kV5FirstSectionOffset = kV5PrologueBytes + kV5TableBytes;
static_assert(kV5FirstSectionOffset % 8 == 0,
              "the first section must start 8-aligned");

constexpr uint64_t Align8(uint64_t v) { return (v + 7) & ~uint64_t{7}; }

struct V5SectionRecord {
  uint64_t offset = 0;
  uint64_t length = 0;
};

// Positioned checksummed writer for v5 sections. Lengths live in the
// section table rather than as per-array prefixes, so this tracks the
// absolute file position to place sections canonically.
class V5Writer {
 public:
  V5Writer(std::FILE* f, uint64_t pos) : f_(f), pos_(pos) {}

  Status BeginSection(V5SectionRecord* rec) {
    static constexpr uint8_t kZeros[8] = {0};
    const uint64_t aligned = Align8(pos_);
    if (aligned != pos_) {
      GRAFT_RETURN_IF_ERROR(RawWrite(kZeros, aligned - pos_));
    }
    crc_ = 0;
    current_ = rec;
    current_->offset = pos_;
    return Status::Ok();
  }

  Status Write(const void* data, size_t size) {
    crc_ = common::Crc32cExtend(crc_, data, size);
    return RawWrite(data, size);
  }

  template <typename T>
  Status WriteScalar(T value) {
    return Write(&value, sizeof(T));
  }

  Status EndSection() {
    current_->length = pos_ - current_->offset;
    const uint32_t crc = crc_;
    return RawWrite(&crc, sizeof(crc));
  }

 private:
  Status RawWrite(const void* data, size_t size) {
    if (size != 0 && std::fwrite(data, 1, size, f_) != size) {
      return Status::IOError("short write");
    }
    pos_ += size;
    return Status::Ok();
  }

  std::FILE* f_;
  uint64_t pos_;
  uint32_t crc_ = 0;
  V5SectionRecord* current_ = nullptr;
};

// One block's three packed columns (doc gaps, tf - 1, position-varint
// byte lengths) and the header that describes them. The term-record,
// header and payload sections all recompute blocks through
// ForEachV5Block, so the save holds no per-term or per-block array.
struct V5Block {
  BlockHeaderV5 header;
  size_t n = 0;
  uint32_t columns[3][kFmtV5BlockSize];

  uint64_t payload_bytes() const {
    return common::PackedBytes(n, header.doc_bits) +
           common::PackedBytes(n, header.tf_bits) +
           common::PackedBytes(n, header.off_bits);
  }
};

// Calls fn(block) for each block of term `t` in order; each header's
// payload offset runs from the term's payload base. Fails when a header
// cannot address the term's payload or position blob (4 GiB each).
template <typename Fn>
Status ForEachV5Block(const InvertedIndex& index, TermId t, Fn fn) {
  const PostingList& list = index.postings(t);
  const std::span<const DocId> docs = list.docs();
  const std::span<const uint32_t> tfs = list.tfs();
  const std::span<const uint32_t> starts = list.offset_starts();
  if (list.position_bytes().size() > UINT32_MAX) {
    return Status::Internal(
        "term position blob exceeds the 4 GiB a v5 block header can "
        "address: " + index.TermText(t));
  }
  V5Block block;
  uint64_t term_payload = 0;
  for (size_t begin = 0; begin < docs.size(); begin += kFmtV5BlockSize) {
    if (term_payload > UINT32_MAX) {
      return Status::Internal(
          "term payload exceeds the 4 GiB a v5 block header can "
          "address: " + index.TermText(t));
    }
    const size_t end = std::min(docs.size(), begin + kFmtV5BlockSize);
    block.n = end - begin;
    const uint32_t base = begin == 0 ? 0 : docs[begin - 1] + 1;
    uint32_t max[3] = {0, 0, 0};
    for (size_t i = begin; i < end; ++i) {
      const uint32_t values[3] = {
          i == begin ? docs[i] - base : docs[i] - docs[i - 1] - 1,
          tfs[i] - 1, starts[i + 1] - starts[i]};
      for (size_t c = 0; c < 3; ++c) {
        block.columns[c][i - begin] = values[c];
        max[c] = std::max(max[c], values[c]);
      }
    }
    BlockHeaderV5& h = block.header;
    h.last_doc = docs[end - 1];
    h.payload_offset = static_cast<uint32_t>(term_payload);
    h.offsets_base = starts[begin];
    h.doc_bits = static_cast<uint8_t>(common::BitsFor(max[0]));
    h.tf_bits = static_cast<uint8_t>(common::BitsFor(max[1]));
    h.off_bits = static_cast<uint8_t>(common::BitsFor(max[2]));
    h.reserved = 0;
    GRAFT_RETURN_IF_ERROR(fn(block));
    term_payload += block.payload_bytes();
  }
  return Status::Ok();
}

Status WriteIndexBodyV5(const InvertedIndex& index, std::FILE* f) {
  char prologue[8];
  std::memcpy(prologue, kFmtMagic, sizeof(kFmtMagic));
  prologue[7] = kFmtVersionV5;
  const std::vector<uint8_t> placeholder(kV5TableBytes, 0);
  if (std::fwrite(prologue, 1, sizeof(prologue), f) != sizeof(prologue) ||
      std::fwrite(placeholder.data(), 1, placeholder.size(), f) !=
          placeholder.size()) {
    return Status::IOError("short write");
  }

  V5Writer w(f, kV5FirstSectionOffset);
  V5SectionRecord recs[kFmtV5SectionCount];

  // kCollection.
  GRAFT_RETURN_IF_ERROR(w.BeginSection(&recs[0]));
  GRAFT_RETURN_IF_ERROR(w.WriteScalar<uint64_t>(index.doc_count()));
  GRAFT_RETURN_IF_ERROR(w.WriteScalar<uint64_t>(index.total_words()));
  GRAFT_RETURN_IF_ERROR(
      w.WriteScalar<uint64_t>(index.doc_lengths().size()));
  GRAFT_RETURN_IF_ERROR(w.Write(index.doc_lengths().data(),
                                index.doc_lengths().size() * 4));
  GRAFT_RETURN_IF_ERROR(w.EndSection());
  GRAFT_FAILPOINT_WRITE(g_fp_save_header, f);

  // kTermDict.
  GRAFT_RETURN_IF_ERROR(w.BeginSection(&recs[1]));
  GRAFT_RETURN_IF_ERROR(w.WriteScalar<uint64_t>(index.term_count()));
  for (TermId t = 0; t < index.term_count(); ++t) {
    const std::string& text = index.TermText(t);
    GRAFT_RETURN_IF_ERROR(
        w.WriteScalar<uint32_t>(static_cast<uint32_t>(text.size())));
    GRAFT_RETURN_IF_ERROR(w.Write(text.data(), text.size()));
  }
  GRAFT_RETURN_IF_ERROR(w.EndSection());

  // kTermMeta: one record per term, placed by running section totals.
  GRAFT_RETURN_IF_ERROR(w.BeginSection(&recs[2]));
  uint64_t next_block = 0;
  uint64_t next_payload = 0;
  uint64_t next_offsets = 0;
  for (TermId t = 0; t < index.term_count(); ++t) {
    const PostingList& list = index.postings(t);
    TermMetaV5 m;
    m.doc_count = list.doc_count();
    m.collection_frequency = list.collection_frequency();
    m.block_begin = next_block;
    m.payload_begin = next_payload;
    m.offsets_begin = next_offsets;
    m.offsets_length = list.position_bytes().size();
    GRAFT_RETURN_IF_ERROR(w.Write(&m, kFmtV5TermMetaBytes));
    GRAFT_RETURN_IF_ERROR(ForEachV5Block(index, t, [&](const V5Block& b) {
      next_payload += b.payload_bytes();
      return Status::Ok();
    }));
    next_block += list.block_count();
    next_offsets += m.offsets_length;
  }
  GRAFT_RETURN_IF_ERROR(w.EndSection());

  // kBlockHeaders.
  GRAFT_RETURN_IF_ERROR(w.BeginSection(&recs[3]));
  for (TermId t = 0; t < index.term_count(); ++t) {
    GRAFT_RETURN_IF_ERROR(ForEachV5Block(index, t, [&](const V5Block& b) {
      return w.Write(&b.header, kFmtV5BlockHeaderBytes);
    }));
  }
  GRAFT_RETURN_IF_ERROR(w.EndSection());

  // kPayload: per block, the three packed columns, each starting on a
  // byte boundary.
  GRAFT_RETURN_IF_ERROR(w.BeginSection(&recs[4]));
  uint8_t packed[common::PackedBytes(kFmtV5BlockSize, 32)];
  for (TermId t = 0; t < index.term_count(); ++t) {
    GRAFT_FAILPOINT_WRITE(g_fp_save_term, f);
    GRAFT_RETURN_IF_ERROR(ForEachV5Block(index, t, [&](const V5Block& b) {
      const uint8_t bits[3] = {b.header.doc_bits, b.header.tf_bits,
                               b.header.off_bits};
      for (size_t c = 0; c < 3; ++c) {
        common::PackInts(b.columns[c], b.n, bits[c], packed);
        GRAFT_RETURN_IF_ERROR(
            w.Write(packed, common::PackedBytes(b.n, bits[c])));
      }
      return Status::Ok();
    }));
  }
  GRAFT_RETURN_IF_ERROR(w.EndSection());

  // kOffsets: each term's position-varint blob, byte-identical to v4.
  GRAFT_RETURN_IF_ERROR(w.BeginSection(&recs[5]));
  for (TermId t = 0; t < index.term_count(); ++t) {
    const std::span<const uint8_t> encoded = index.postings(t).position_bytes();
    GRAFT_RETURN_IF_ERROR(w.Write(encoded.data(), encoded.size()));
  }
  GRAFT_RETURN_IF_ERROR(w.EndSection());

  // kFrontiers: the block-max Pareto frontiers, verbatim. Every index
  // carries them (built, or loaded from any readable version).
  GRAFT_RETURN_IF_ERROR(w.BeginSection(&recs[6]));
  for (TermId t = 0; t < index.term_count(); ++t) {
    const PostingList& list = index.postings(t);
    const std::span<const uint32_t> fs = list.frontier_starts();
    const std::span<const uint32_t> ftf = list.frontier_tfs();
    const std::span<const uint32_t> flen = list.frontier_doc_lengths();
    GRAFT_RETURN_IF_ERROR(
        w.WriteScalar<uint32_t>(static_cast<uint32_t>(ftf.size())));
    GRAFT_RETURN_IF_ERROR(w.Write(fs.data(), fs.size() * 4));
    GRAFT_RETURN_IF_ERROR(w.Write(ftf.data(), ftf.size() * 4));
    GRAFT_RETURN_IF_ERROR(w.Write(flen.data(), flen.size() * 4));
  }
  GRAFT_RETURN_IF_ERROR(w.EndSection());

  // Patch the section table now that offsets and lengths are known.
  std::vector<uint8_t> table(kV5TableBytes, 0);
  const uint32_t count = kFmtV5SectionCount;
  std::memcpy(table.data(), &count, 4);
  for (uint32_t i = 0; i < kFmtV5SectionCount; ++i) {
    std::memcpy(table.data() + 4 + i * 16, &recs[i].offset, 8);
    std::memcpy(table.data() + 4 + i * 16 + 8, &recs[i].length, 8);
  }
  const uint32_t table_crc =
      common::Crc32cExtend(0, table.data(), kV5TableBytes - 4);
  std::memcpy(table.data() + kV5TableBytes - 4, &table_crc, 4);
  if (std::fseek(f, static_cast<long>(kV5PrologueBytes), SEEK_SET) != 0) {
    return Status::IOError("fseek failed while patching section table");
  }
  if (std::fwrite(table.data(), 1, table.size(), f) != table.size()) {
    return Status::IOError("short write");
  }
  return Status::Ok();
}

// The fallible middle of SaveIndex, factored out so the caller can unlink
// the temp file on ANY failure path with a single cleanup site: write the
// complete image to the temp file, fsync, rename, fsync the directory.
Status WriteTempAndRename(const InvertedIndex& index,
                          const std::string& tmp_path,
                          const std::string& path) {
  FilePtr file(std::fopen(tmp_path.c_str(), "wb"));
  if (file == nullptr) {
    return Status::IOError("cannot open for write: " + tmp_path);
  }
  std::FILE* f = file.get();
  GRAFT_FAILPOINT_WRITE(g_fp_save_open_tmp, f);
  GRAFT_RETURN_IF_ERROR(WriteIndexBodyV5(index, f));
  GRAFT_FAILPOINT_WRITE(g_fp_save_before_sync, f);
  if (std::fflush(f) != 0) {
    return Status::IOError("flush failed: " + tmp_path);
  }
  if (::fsync(::fileno(f)) != 0) {
    return Status::IOError("fsync failed: " + tmp_path);
  }
  file.reset();  // close before rename
  GRAFT_FAILPOINT(g_fp_save_before_rename);
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    return Status::IOError("rename failed: " + tmp_path + " -> " + path);
  }
  // From here the new generation is visible; only durability of the
  // directory entry remains.
  GRAFT_FAILPOINT(g_fp_save_before_dirsync);
  return SyncParentDir(path);
}

// ---------------------------------------------------------------------------
// v5 parsing: one validation pass shared by the eager and mapped loaders.
// Everything is verified BEFORE any content is trusted — table CRC, every
// section CRC, canonical placement with zero padding, then structural
// invariants (contiguous term records, monotone doc ids, in-range offsets).

struct V5Parsed {
  uint64_t doc_count = 0;
  uint64_t total_words = 0;
  const uint32_t* doc_lengths = nullptr;
  std::vector<std::string_view> terms;
  const TermMetaV5* metas = nullptr;
  const BlockHeaderV5* headers = nullptr;
  uint64_t total_blocks = 0;
  const uint8_t* payload = nullptr;
  uint64_t payload_len = 0;
  const uint8_t* offsets = nullptr;
  uint64_t offsets_len = 0;
  // The frontier section as u32 words, and the word where each term's
  // frontier run (its delimiters, past its u32 n_pts) begins.
  const uint32_t* frontiers = nullptr;
  uint64_t frontier_words = 0;
  std::vector<uint64_t> frontier_at;
};

Status ParseV5(const uint8_t* data, uint64_t size, V5Parsed* out) {
  // The caller has verified the 8-byte prologue.
  if (size < kV5FirstSectionOffset) {
    return Status::DataLoss("index file truncated inside the section table");
  }
  const uint8_t* table = data + kV5PrologueBytes;
  if (common::Crc32cExtend(0, table, kV5TableBytes - 4) !=
      LoadU32(table + kV5TableBytes - 4)) {
    return Status::Corruption("checksum mismatch in section table");
  }
  if (LoadU32(table) != kFmtV5SectionCount) {
    return Status::Corruption("unexpected section count");
  }
  V5SectionRecord recs[kFmtV5SectionCount];
  uint64_t expect = kV5FirstSectionOffset;
  for (uint32_t i = 0; i < kFmtV5SectionCount; ++i) {
    recs[i].offset = LoadU64(table + 4 + i * 16);
    recs[i].length = LoadU64(table + 4 + i * 16 + 8);
    if (recs[i].offset != Align8(expect)) {
      return Status::Corruption("non-canonical section placement");
    }
    if (recs[i].offset > size || recs[i].length > size ||
        recs[i].offset + recs[i].length + 4 > size) {
      return Status::DataLoss("section extends past end of index file");
    }
    // Alignment padding sits between the previous section's CRC and this
    // section; it must be zero so every file byte stays accounted for.
    for (uint64_t b = expect; b < recs[i].offset; ++b) {
      if (data[b] != 0) {
        return Status::Corruption("nonzero section padding");
      }
    }
    expect = recs[i].offset + recs[i].length + 4;
  }
  if (expect != size) {
    return Status::Corruption("trailing bytes after the last section");
  }
  static const char* kSectionNames[kFmtV5SectionCount] = {
      "collection", "term dictionary", "term metadata", "block headers",
      "payload",    "offsets",         "frontiers"};
  for (uint32_t i = 0; i < kFmtV5SectionCount; ++i) {
    const uint8_t* s = data + recs[i].offset;
    if (common::Crc32cExtend(0, s, recs[i].length) !=
        LoadU32(s + recs[i].length)) {
      return Status::Corruption(std::string("checksum mismatch in section ") +
                                kSectionNames[i]);
    }
  }

  // kCollection.
  {
    const auto& rec = recs[static_cast<size_t>(FmtV5Section::kCollection)];
    const uint8_t* s = data + rec.offset;
    if (rec.length < 24) {
      return Status::Corruption("collection section too short");
    }
    out->doc_count = LoadU64(s);
    out->total_words = LoadU64(s + 8);
    const uint64_t n = LoadU64(s + 16);
    if (n != out->doc_count || n > (rec.length - 24) / 4 ||
        24 + n * 4 != rec.length) {
      return Status::Corruption("doc length array does not match doc count");
    }
    out->doc_lengths = reinterpret_cast<const uint32_t*>(s + 24);
  }

  // kTermDict.
  uint64_t term_count = 0;
  {
    const auto& rec = recs[static_cast<size_t>(FmtV5Section::kTermDict)];
    const uint8_t* s = data + rec.offset;
    if (rec.length < 8) {
      return Status::Corruption("term dictionary section too short");
    }
    term_count = LoadU64(s);
    if (term_count > kSanityCap || term_count > rec.length) {
      return Status::Corruption("implausible term count");
    }
    out->terms.reserve(term_count);
    uint64_t pos = 8;
    for (uint64_t i = 0; i < term_count; ++i) {
      if (pos + 4 > rec.length) {
        return Status::Corruption("term dictionary ends mid-record");
      }
      const uint32_t text_len = LoadU32(s + pos);
      pos += 4;
      if (text_len > (1u << 20) || pos + text_len > rec.length) {
        return Status::Corruption("implausible term length");
      }
      out->terms.emplace_back(reinterpret_cast<const char*>(s + pos),
                              text_len);
      pos += text_len;
    }
    if (pos != rec.length) {
      return Status::Corruption("trailing bytes in term dictionary");
    }
  }

  // kTermMeta / kBlockHeaders.
  {
    const auto& rec = recs[static_cast<size_t>(FmtV5Section::kTermMeta)];
    if (rec.length != term_count * kFmtV5TermMetaBytes) {
      return Status::Corruption(
          "term metadata does not match term dictionary");
    }
    out->metas = reinterpret_cast<const TermMetaV5*>(data + rec.offset);
  }
  {
    const auto& rec =
        recs[static_cast<size_t>(FmtV5Section::kBlockHeaders)];
    if (rec.length % kFmtV5BlockHeaderBytes != 0) {
      return Status::Corruption("block header section not a header multiple");
    }
    out->headers = reinterpret_cast<const BlockHeaderV5*>(data + rec.offset);
    out->total_blocks = rec.length / kFmtV5BlockHeaderBytes;
  }
  out->payload =
      data + recs[static_cast<size_t>(FmtV5Section::kPayload)].offset;
  out->payload_len =
      recs[static_cast<size_t>(FmtV5Section::kPayload)].length;
  out->offsets =
      data + recs[static_cast<size_t>(FmtV5Section::kOffsets)].offset;
  out->offsets_len =
      recs[static_cast<size_t>(FmtV5Section::kOffsets)].length;

  // Per-term structural validation: records must tile the block-header,
  // payload and offsets sections exactly, block headers must be sane and
  // doc ids monotone in range.
  uint64_t running_block = 0;
  uint64_t running_payload = 0;
  uint64_t running_offsets = 0;
  for (uint64_t t = 0; t < term_count; ++t) {
    const TermMetaV5& m = out->metas[t];
    if (m.doc_count == 0 || m.doc_count > out->doc_count) {
      return Status::Corruption("implausible term document count");
    }
    if (m.collection_frequency < m.doc_count) {
      return Status::Corruption("collection frequency below document count");
    }
    if (m.offsets_length > UINT32_MAX) {
      return Status::Corruption("term position blob exceeds 4 GiB");
    }
    const uint64_t blocks =
        (m.doc_count + kFmtV5BlockSize - 1) / kFmtV5BlockSize;
    if (m.block_begin != running_block ||
        m.payload_begin != running_payload ||
        m.offsets_begin != running_offsets) {
      return Status::Corruption("term records do not tile the sections");
    }
    running_block += blocks;
    if (running_block > out->total_blocks) {
      return Status::Corruption("term block range exceeds header section");
    }
    uint64_t term_payload = 0;
    uint32_t prev_last = 0;
    uint32_t prev_base = 0;
    for (uint64_t b = 0; b < blocks; ++b) {
      const BlockHeaderV5& h = out->headers[m.block_begin + b];
      const size_t bn = static_cast<size_t>(
          std::min<uint64_t>(kFmtV5BlockSize, m.doc_count - b * kFmtV5BlockSize));
      if (h.reserved != 0 || h.doc_bits > 32 || h.tf_bits > 32 ||
          h.off_bits > 32) {
        return Status::Corruption("implausible block header");
      }
      if (h.payload_offset != term_payload) {
        return Status::Corruption("block payload offsets do not tile");
      }
      if ((b > 0 && h.last_doc <= prev_last) ||
          h.last_doc >= out->doc_count) {
        return Status::Corruption("block last_doc not monotone in range");
      }
      // Monotone bases bound each block's position bytes by the next
      // block's base, which the mapped decode relies on.
      if (h.offsets_base > m.offsets_length || h.offsets_base < prev_base ||
          (b == 0 && h.offsets_base != 0)) {
        return Status::Corruption("block offsets base out of range");
      }
      prev_last = h.last_doc;
      prev_base = h.offsets_base;
      term_payload += common::PackedBytes(bn, h.doc_bits) +
                      common::PackedBytes(bn, h.tf_bits) +
                      common::PackedBytes(bn, h.off_bits);
    }
    running_payload += term_payload;
    running_offsets += m.offsets_length;
    if (running_payload > out->payload_len ||
        running_offsets > out->offsets_len) {
      return Status::Corruption("term payload exceeds its section");
    }
  }
  if (running_block != out->total_blocks ||
      running_payload != out->payload_len ||
      running_offsets != out->offsets_len) {
    return Status::Corruption("sections larger than the term records claim");
  }

  // kFrontiers.
  {
    const auto& rec = recs[static_cast<size_t>(FmtV5Section::kFrontiers)];
    const uint8_t* s = data + rec.offset;
    out->frontiers = reinterpret_cast<const uint32_t*>(s);
    out->frontier_words = rec.length / 4;
    out->frontier_at.resize(term_count);
    uint64_t pos = 0;
    for (uint64_t t = 0; t < term_count; ++t) {
      const uint64_t blocks = (out->metas[t].doc_count + kFmtV5BlockSize - 1) /
                              kFmtV5BlockSize;
      if (pos + 4 > rec.length) {
        return Status::Corruption("frontier section ends mid-record");
      }
      const uint32_t n_pts = LoadU32(s + pos);
      pos += 4;
      const uint64_t need = (blocks + 1 + uint64_t{2} * n_pts) * 4;
      if (need > rec.length - pos) {
        return Status::Corruption("frontier record exceeds its section");
      }
      out->frontier_at[t] = pos / 4;
      const uint32_t* start = out->frontiers + pos / 4;
      pos += (blocks + 1 + uint64_t{2} * n_pts) * 4;
      if (start[0] != 0 || start[blocks] != n_pts) {
        return Status::Corruption(
            "block frontier arrays do not match posting block count");
      }
      for (uint64_t b = 0; b < blocks; ++b) {
        if (start[b] >= start[b + 1]) {
          return Status::Corruption(
              "block frontier delimiters are not strictly increasing");
        }
      }
    }
    if (pos != rec.length) {
      return Status::Corruption("trailing bytes in frontier section");
    }
  }
  return Status::Ok();
}

// Eager v5 load: decodes every list into index-wide docs / tfs /
// offset-start columns and copies the position bytes and frontiers out
// of the file, one allocation per column, so the index keeps nothing of
// the file. Checks what only a full decode can see.
Status DecodeV5Columns(const V5Parsed& p, PostingStorage* storage,
                       InvertedIndex* index) {
  const uint64_t terms = p.terms.size();
  uint64_t postings = 0;
  for (uint64_t t = 0; t < terms; ++t) postings += p.metas[t].doc_count;
  *storage = PostingStorage::Columns(terms, postings, p.offsets_len,
                                     p.frontier_words);
  std::memcpy(storage->offsets.get(), p.offsets, p.offsets_len);
  std::memcpy(storage->frontiers.get(), p.frontiers, p.frontier_words * 4);

  uint32_t scratch[kFmtV5BlockSize];
  uint64_t at = 0;  // the term's first posting in the columns
  for (uint64_t t = 0; t < terms; ++t) {
    const TermMetaV5& m = p.metas[t];
    const BlockHeaderV5* hs = p.headers + m.block_begin;
    const uint8_t* payload = p.payload + m.payload_begin;
    const size_t n = static_cast<size_t>(m.doc_count);
    DocId* docs = storage->docs.get() + at;
    uint32_t* tfs = storage->tfs.get() + at;
    uint32_t* starts = storage->offset_starts.get() + at + t;
    starts[0] = 0;
    for (size_t begin = 0, b = 0; begin < n; begin += kFmtV5BlockSize, ++b) {
      const size_t bn = std::min(kFmtV5BlockSize, n - begin);
      const BlockHeaderV5& h = hs[b];
      const uint8_t* pp = payload + h.payload_offset;
      common::UnpackInts(pp, bn, h.doc_bits, scratch);
      // Summed in 64 bits, so ids only grow: the last one matching the
      // header's in-range last_doc bounds them all.
      uint64_t running = b == 0 ? 0 : uint64_t{hs[b - 1].last_doc} + 1;
      for (size_t i = 0; i < bn; ++i) {
        running += scratch[i] + (i > 0 ? 1 : 0);
        docs[begin + i] = static_cast<DocId>(running);
      }
      if (running != h.last_doc) {
        return Status::Corruption(
            "block payload disagrees with its header last_doc");
      }
      pp += common::PackedBytes(bn, h.doc_bits);
      common::UnpackInts(pp, bn, h.tf_bits, scratch);
      for (size_t i = 0; i < bn; ++i) {
        tfs[begin + i] = scratch[i] + 1;
        if (tfs[begin + i] == 0) {
          return Status::Corruption("zero term frequency");
        }
      }
      pp += common::PackedBytes(bn, h.tf_bits);
      common::UnpackInts(pp, bn, h.off_bits, scratch);
      // Summed in 64 bits: ParseV5 capped the blob at 4 GiB, so a block
      // that stays within it cannot have wrapped a u32 start.
      uint64_t start = starts[begin];
      for (size_t i = 0; i < bn; ++i) {
        if (tfs[begin + i] > scratch[i]) {
          // Every position varint is at least one byte.
          return Status::Corruption("term frequency above its position bytes");
        }
        start += scratch[i];
        starts[begin + i + 1] = static_cast<uint32_t>(start);
      }
      if (start > m.offsets_length) {
        return Status::Corruption(
            "packed offset lengths disagree with the offsets blob");
      }
    }
    if (starts[n] != m.offsets_length) {
      return Status::Corruption(
          "packed offset lengths disagree with the offsets blob");
    }
    *index->mutable_postings(static_cast<TermId>(t)) = PostingList(
        n, m.collection_frequency,
        {docs, tfs, starts, storage->offsets.get() + m.offsets_begin},
        Frontiers::At(storage->frontiers.get() + p.frontier_at[t],
                      (n + kFmtV5BlockSize - 1) / kFmtV5BlockSize));
    at += n;
  }
  return Status::Ok();
}

// Shared tail of the v5 loaders: builds the InvertedIndex from a parsed
// region, either decoding every list (eager) or keeping the region and
// installing zero-copy packed views plus the decoded-block cache
// (mapped).
StatusOr<InvertedIndex> BuildIndexFromV5(common::MmapRegion region,
                                         bool eager,
                                         MappedLoadOptions options) {
  V5Parsed p;
  GRAFT_RETURN_IF_ERROR(ParseV5(region.data(), region.size(), &p));

  InvertedIndex index;
  index.SetDocLengths(
      std::vector<uint32_t>(p.doc_lengths, p.doc_lengths + p.doc_count),
      p.total_words);
  index.ReserveTerms(p.terms.size());
  for (uint64_t t = 0; t < p.terms.size(); ++t) {
    if (index.InternTerm(p.terms[t]) != t) {
      return Status::Corruption("duplicate term in index file: " +
                                std::string(p.terms[t]));
    }
  }

  PostingStorage storage;
  if (eager) {
    GRAFT_RETURN_IF_ERROR(DecodeV5Columns(p, &storage, &index));
  } else {
    std::shared_ptr<BlockCache> cache =
        options.cache != nullptr
            ? options.cache
            : std::make_shared<BlockCache>(options.private_cache_bytes);
    const uint64_t generation = BlockCache::NextGeneration();
    for (uint64_t t = 0; t < p.terms.size(); ++t) {
      const TermMetaV5& m = p.metas[t];
      PackedPostings packed;
      packed.headers = p.headers + m.block_begin;
      packed.payload = p.payload + m.payload_begin;
      packed.offsets = p.offsets + m.offsets_begin;
      packed.offsets_length = m.offsets_length;
      packed.doc_count = m.doc_count;
      packed.generation = generation;
      packed.term = static_cast<uint32_t>(t);
      packed.cache = cache.get();
      *index.mutable_postings(static_cast<TermId>(t)) = PostingList(
          packed, m.collection_frequency,
          Frontiers::At(p.frontiers + p.frontier_at[t],
                        (m.doc_count + kFmtV5BlockSize - 1) /
                            kFmtV5BlockSize));
    }
    storage.region = std::make_shared<common::MmapRegion>(std::move(region));
    index.AttachBlockCache(std::move(cache), generation);
  }
  index.AdoptStorage(std::move(storage));
  GRAFT_FAILPOINT(g_fp_load_verify);
  return index;
}

// ---------------------------------------------------------------------------
// v3/v4: read-only inputs (normative spec: docs/index-format.md). Every
// section is a run of u64 length-prefixed arrays followed by a u32 CRC32C.
// LegacyReader walks the in-memory file image; VerifyCrc() compares the
// stamped checksum against the running one BEFORE the caller uses the
// section's content.

class LegacyReader {
 public:
  LegacyReader(const uint8_t* data, uint64_t size)
      : data_(data), size_(size), pos_(8) {}  // past the prologue

  Status ReadBytes(void* out, uint64_t n) {
    if (n > size_ - pos_) {
      return Status::DataLoss("short read or truncated index file");
    }
    if (n == 0) return Status::Ok();
    std::memcpy(out, data_ + pos_, n);
    crc_ = common::Crc32cExtend(crc_, data_ + pos_, n);
    pos_ += n;
    return Status::Ok();
  }

  template <typename T>
  Status ReadScalar(T* value) {
    return ReadBytes(value, sizeof(T));
  }

  // Reads a length-prefixed array, validating the declared length against
  // the bytes actually left in the file BEFORE allocating — a corrupt or
  // truncated header can therefore never trigger a multi-gigabyte resize;
  // it fails cleanly with DataLoss.
  template <typename T>
  Status ReadVector(std::vector<T>* v) {
    uint64_t n = 0;
    GRAFT_RETURN_IF_ERROR(ReadScalar(&n));
    if (n > (size_ - pos_) / sizeof(T)) {
      return Status::DataLoss(
          "vector length exceeds remaining index file bytes");
    }
    v->resize(n);
    return ReadBytes(v->data(), n * sizeof(T));
  }

  Status VerifyCrc(const std::string& section) {
    const uint32_t computed = crc_;
    crc_ = 0;
    if (size_ - pos_ < 4) {
      return Status::DataLoss("index file truncated before checksum of " +
                              section);
    }
    const uint32_t stored = LoadU32(data_ + pos_);
    pos_ += 4;
    if (stored != computed) {
      return Status::Corruption("checksum mismatch in " + section);
    }
    return Status::Ok();
  }

 private:
  const uint8_t* data_;
  uint64_t size_;
  uint64_t pos_;
  uint32_t crc_ = 0;
};

// The posting invariants ParseV5 enforces for v5, checked on a v3/v4 term
// record after its CRC and before any of it is used. A CRC-valid record
// that breaks them would otherwise index doc_lengths out of bounds
// (AppendFrontiers, scoring) or convert into a v5 file that cannot load.
Status ValidateLegacyPostings(const std::vector<DocId>& docs,
                              const std::vector<uint32_t>& tfs,
                              const std::vector<uint64_t>& starts,
                              uint64_t encoded_bytes,
                              uint64_t collection_frequency,
                              uint64_t doc_count) {
  if (docs.empty()) {
    return Status::Corruption("implausible term document count");
  }
  if (tfs.size() != docs.size()) {
    return Status::Corruption("tf array does not match doc array");
  }
  if (starts.size() != docs.size() + 1 || starts.front() != 0 ||
      starts.back() != encoded_bytes) {
    return Status::Corruption("offset index does not match encoded bytes");
  }
  if (encoded_bytes > UINT32_MAX) {
    return Status::Corruption("term position blob exceeds 4 GiB");
  }
  if (collection_frequency < docs.size()) {
    return Status::Corruption("collection frequency below document count");
  }
  for (size_t i = 0; i < docs.size(); ++i) {
    if (docs[i] >= doc_count || (i > 0 && docs[i] <= docs[i - 1])) {
      return Status::Corruption("doc ids not strictly increasing in range");
    }
    if (tfs[i] == 0) {
      return Status::Corruption("zero term frequency");
    }
    if (starts[i + 1] < starts[i]) {
      return Status::Corruption("offset index decreases");
    }
    if (tfs[i] > starts[i + 1] - starts[i]) {
      // Every position varint is at least one byte.
      return Status::Corruption("term frequency above its position bytes");
    }
  }
  return Status::Ok();
}

// One v3/v4 term record, read and validated, before it is gathered into
// the index's columns.
struct LegacyTerm {
  std::vector<DocId> docs;
  std::vector<uint32_t> tfs;
  std::vector<uint32_t> offset_starts;
  std::vector<uint8_t> offsets;
  uint64_t total_positions = 0;
};

// Converts a v3/v4 image into a materialized index. v4 frontier arrays are
// restored verbatim; a v3 record gets them computed here, so every loaded
// index carries block-max metadata. The records' lengths are only known
// once every record is read, so they are read first and then gathered
// into the columns an eager v5 load fills.
StatusOr<InvertedIndex> LoadLegacy(const common::MmapRegion& region,
                                   bool has_frontiers) {
  LegacyReader r(region.data(), region.size());
  InvertedIndex index;
  uint64_t doc_count = 0;
  uint64_t total_words = 0;
  GRAFT_RETURN_IF_ERROR(r.ReadScalar(&doc_count));
  GRAFT_RETURN_IF_ERROR(r.ReadScalar(&total_words));
  std::vector<uint32_t> doc_lengths;
  GRAFT_RETURN_IF_ERROR(r.ReadVector(&doc_lengths));
  GRAFT_RETURN_IF_ERROR(r.VerifyCrc("header section"));
  if (doc_lengths.size() != doc_count) {
    return Status::Corruption("doc length array does not match doc count");
  }
  index.SetDocLengths(std::move(doc_lengths), total_words);

  uint64_t term_count = 0;
  GRAFT_RETURN_IF_ERROR(r.ReadScalar(&term_count));
  GRAFT_RETURN_IF_ERROR(r.VerifyCrc("term directory"));
  if (term_count > kSanityCap || term_count > region.size()) {
    return Status::Corruption("implausible term count");
  }
  std::vector<LegacyTerm> records;
  std::vector<uint32_t> frontiers;  // every term's run, term after term
  for (uint64_t i = 0; i < term_count; ++i) {
    uint32_t text_len = 0;
    GRAFT_RETURN_IF_ERROR(r.ReadScalar(&text_len));
    if (text_len > (1u << 20)) {
      return Status::Corruption("implausible term length");
    }
    std::string text(text_len, '\0');
    GRAFT_RETURN_IF_ERROR(r.ReadBytes(text.data(), text_len));

    LegacyTerm rec;
    std::vector<uint64_t> starts;
    std::vector<uint32_t> frontier_start;
    std::vector<uint32_t> frontier_tf;
    std::vector<uint32_t> frontier_len;
    GRAFT_RETURN_IF_ERROR(r.ReadVector(&rec.docs));
    GRAFT_RETURN_IF_ERROR(r.ReadVector(&rec.tfs));
    GRAFT_RETURN_IF_ERROR(r.ReadVector(&starts));
    GRAFT_RETURN_IF_ERROR(r.ReadVector(&rec.offsets));
    if (has_frontiers) {
      GRAFT_RETURN_IF_ERROR(r.ReadVector(&frontier_start));
      GRAFT_RETURN_IF_ERROR(r.ReadVector(&frontier_tf));
      GRAFT_RETURN_IF_ERROR(r.ReadVector(&frontier_len));
    }
    GRAFT_RETURN_IF_ERROR(r.ReadScalar(&rec.total_positions));
    // Verify the section's checksum BEFORE mutating the index with its
    // content — a term record either enters the index intact or not at
    // all.
    GRAFT_RETURN_IF_ERROR(r.VerifyCrc("term record " + std::to_string(i)));
    GRAFT_RETURN_IF_ERROR(
        ValidateLegacyPostings(rec.docs, rec.tfs, starts, rec.offsets.size(),
                               rec.total_positions, doc_count));
    // ValidateLegacyPostings capped every start at 4 GiB.
    rec.offset_starts.assign(starts.begin(), starts.end());
    if (has_frontiers) {
      // The frontier section must be structurally coherent before it is
      // installed: one delimiter run per posting block, monotone with at
      // least one point per block, and the two point arrays exactly as
      // long as the last delimiter says.
      const uint64_t expected_blocks =
          (rec.docs.size() + PostingList::kBlockSize - 1) /
          PostingList::kBlockSize;
      if (frontier_start.size() != expected_blocks + 1 ||
          frontier_start.front() != 0 ||
          frontier_start.back() != frontier_tf.size() ||
          frontier_tf.size() != frontier_len.size()) {
        return Status::Corruption(
            "block frontier arrays do not match posting block count");
      }
      for (size_t b = 0; b < expected_blocks; ++b) {
        if (frontier_start[b] >= frontier_start[b + 1]) {
          return Status::Corruption(
              "block frontier delimiters are not strictly increasing");
        }
      }
      for (const auto* words :
           {&frontier_start, &frontier_tf, &frontier_len}) {
        frontiers.insert(frontiers.end(), words->begin(), words->end());
      }
    } else {
      AppendFrontiers(rec.docs, rec.tfs, index.doc_lengths(), &frontiers);
    }
    if (index.InternTerm(text) != i) {
      return Status::Corruption("duplicate term in index file: " + text);
    }
    records.push_back(std::move(rec));
  }

  index.GatherColumns(std::span<const LegacyTerm>(records), frontiers);
  GRAFT_FAILPOINT(g_fp_load_verify);
  return index;
}

// The one version dispatch behind LoadIndex and LoadIndexMapped. v5 loads
// eagerly or zero-copy as asked; v3/v4 have no packed sections, so both
// entry points convert them into a materialized index.
StatusOr<InvertedIndex> Load(const std::string& path, bool eager,
                             MappedLoadOptions options) {
  GRAFT_FAILPOINT(g_fp_load_open);
  GRAFT_ASSIGN_OR_RETURN(common::MmapRegion region,
                         common::MmapRegion::Open(path));
  if (region.size() < 8) {
    return Status::DataLoss("index file shorter than its magic: " + path);
  }
  if (std::memcmp(region.data(), kFmtMagic, sizeof(kFmtMagic)) != 0) {
    return Status::DataLoss("bad magic; not a GRAFT index file: " + path);
  }
  const char version = static_cast<char>(region.data()[7]);
  switch (version) {
    case kFmtVersionV5:
      return BuildIndexFromV5(std::move(region), eager, std::move(options));
    case kFmtVersionV4:
    case kFmtVersionV3:
      return LoadLegacy(region, version == kFmtVersionV4);
    default:
      return Status::VersionMismatch(
          std::string("unsupported index format version '") + version +
          "' (this build reads versions '" + kFmtVersionV3 + "', '" +
          kFmtVersionV4 + "' and '" + kFmtVersionV5 + "'): " + path);
  }
}

}  // namespace

Status SaveIndex(const InvertedIndex& index, const std::string& path) {
  if (index.is_packed()) {
    return Status::FailedPrecondition(
        "cannot save a mapped (packed) index; eager-load it first: " + path);
  }
  // Deterministic temp name: a leftover from a crashed writer is simply
  // overwritten by the next save, so torn temp files never accumulate.
  const std::string tmp_path = path + ".tmp";
  const Status status = WriteTempAndRename(index, tmp_path, path);
  if (!status.ok()) {
    std::remove(tmp_path.c_str());  // best effort; `path` is untouched
  }
  return status;
}

Status SaveIndexV5(const InvertedIndex& index, const std::string& path) {
  return SaveIndex(index, path);
}

StatusOr<InvertedIndex> LoadIndex(const std::string& path) {
  return Load(path, /*eager=*/true, MappedLoadOptions{});
}

StatusOr<InvertedIndex> LoadIndexMapped(const std::string& path,
                                        MappedLoadOptions options) {
  return Load(path, /*eager=*/false, std::move(options));
}

}  // namespace graft::index
