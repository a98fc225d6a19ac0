#include "io/h5lite.h"

#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace df::io {

namespace {
constexpr char kMagic[4] = {'H', '5', 'L', 'T'};
constexpr uint32_t kVersion = 2;  // v2 = v1 + trailing whole-file CRC32
constexpr size_t kHeaderBytes = 8;  // magic + version; excluded from the CRC

std::array<uint32_t, 256> make_crc_table() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

template <typename T>
void append_pod(std::string& buf, const T& v) {
  buf.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

// Flush `path` (a file or a directory) to stable storage. An atomic-rename
// commit is only durable once BOTH the renamed file's bytes and the parent
// directory entry are synced — rename alone survives a crash of the process
// but not of the machine. Best-effort no-op on platforms without fsync.
void fsync_path(const std::string& path, bool required) {
#if defined(__unix__) || defined(__APPLE__)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (required)
      throw H5LiteError(H5LiteError::Kind::Open, "h5lite: cannot open for fsync: " + path);
    return;
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  // Some filesystems refuse fsync on directories (EINVAL); that is the
  // platform's durability ceiling, not a failed save.
  if (rc != 0 && required)
    throw H5LiteError(H5LiteError::Kind::Open, "h5lite: fsync failed: " + path);
#else
  (void)path;
  (void)required;
#endif
}

/// Bounds-checked cursor over an in-memory file image.
struct Reader {
  const char* data;
  size_t size;
  size_t pos = 0;
  std::string path;

  template <typename T>
  T pod() {
    T v{};
    bytes(&v, sizeof(T));
    return v;
  }
  void bytes(void* dst, size_t n) {
    if (pos + n > size) {
      throw H5LiteError(H5LiteError::Kind::Truncated, "h5lite: truncated file: " + path);
    }
    if (n != 0) std::memcpy(dst, data + pos, n);  // an empty dataset's buffer is null
    pos += n;
  }
};
}  // namespace

uint32_t crc32(const void* data, size_t len, uint32_t crc) {
  static const std::array<uint32_t, 256> table = make_crc_table();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = crc ^ 0xffffffffu;
  for (size_t i = 0; i < len; ++i) c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

int64_t Dataset::numel() const {
  int64_t n = 1;
  for (int64_t d : shape) n *= d;
  return n;
}

void H5LiteFile::put(const std::string& name, Dataset ds) {
  const int64_t expect = ds.numel();
  const int64_t actual = ds.is_float() ? static_cast<int64_t>(ds.floats().size())
                                       : static_cast<int64_t>(ds.ints().size());
  if (expect != actual) throw std::invalid_argument("h5lite: shape/data mismatch for " + name);
  datasets_[name] = std::move(ds);
}

void H5LiteFile::put_floats(const std::string& name, std::vector<int64_t> shape,
                            std::vector<float> values) {
  put(name, Dataset{std::move(shape), std::move(values)});
}

void H5LiteFile::put_ints(const std::string& name, std::vector<int64_t> shape,
                          std::vector<int64_t> values) {
  put(name, Dataset{std::move(shape), std::move(values)});
}

const Dataset& H5LiteFile::get(const std::string& name) const {
  auto it = datasets_.find(name);
  if (it == datasets_.end()) throw std::out_of_range("h5lite: no dataset " + name);
  return it->second;
}

void H5LiteFile::save(const std::string& path) const {
  // Serialize the dataset section to memory first so the file-level CRC can
  // be computed over exactly the bytes that land on disk.
  std::string body;
  append_pod(body, static_cast<uint32_t>(datasets_.size()));
  for (const auto& [name, ds] : datasets_) {
    append_pod(body, static_cast<uint32_t>(name.size()));
    body.append(name);
    append_pod(body, static_cast<uint8_t>(ds.is_float() ? 0 : 1));
    append_pod(body, static_cast<uint32_t>(ds.shape.size()));
    for (int64_t d : ds.shape) append_pod(body, d);
    if (ds.is_float()) {
      body.append(reinterpret_cast<const char*>(ds.floats().data()),
                  ds.floats().size() * sizeof(float));
    } else {
      body.append(reinterpret_cast<const char*>(ds.ints().data()),
                  ds.ints().size() * sizeof(int64_t));
    }
  }
  const uint32_t crc = crc32(body.data(), body.size());

  std::ofstream f(path, std::ios::binary);
  if (!f) throw H5LiteError(H5LiteError::Kind::Open, "h5lite: cannot open for write: " + path);
  f.write(kMagic, 4);
  f.write(reinterpret_cast<const char*>(&kVersion), sizeof(kVersion));
  f.write(body.data(), static_cast<std::streamsize>(body.size()));
  f.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  // Flush before checking: a late error (e.g. ENOSPC on the buffered tail)
  // must fail the save, or save_atomic would rename a torn file into place.
  f.close();
  if (f.fail()) throw H5LiteError(H5LiteError::Kind::Open, "h5lite: write failed: " + path);
}

void H5LiteFile::save_atomic(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  save(tmp);
  // Sync the temp file's bytes BEFORE the rename: renaming first could
  // publish a directory entry pointing at data still in the page cache,
  // which a power loss then tears — the exact failure atomicity promises to
  // prevent.
  fsync_path(tmp, /*required=*/true);
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw H5LiteError(H5LiteError::Kind::Open,
                      "h5lite: atomic rename failed: " + path + " (" + ec.message() + ")");
  }
  // And sync the parent directory so the rename itself is durable.
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  fsync_path(parent.empty() ? "." : parent.string(), /*required=*/false);
}

H5LiteFile H5LiteFile::load(const std::string& path) {
  // A `path + ".tmp"` left behind by a save killed before its rename is
  // garbage by definition (the committed file, if any, is at `path`).
  // Sweep it best-effort so retried saves never trip over stale temps.
  {
    std::error_code ec;
    std::filesystem::remove(path + ".tmp", ec);
  }
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) throw H5LiteError(H5LiteError::Kind::Open, "h5lite: cannot open for read: " + path);
  const std::streamsize file_size = f.tellg();
  f.seekg(0);
  std::string image(static_cast<size_t>(file_size), '\0');
  f.read(image.data(), file_size);
  if (!f) throw H5LiteError(H5LiteError::Kind::Open, "h5lite: read failed: " + path);

  if (image.size() < kHeaderBytes || std::memcmp(image.data(), kMagic, 4) != 0) {
    throw H5LiteError(H5LiteError::Kind::Format, "h5lite: bad magic in " + path);
  }
  uint32_t version;
  std::memcpy(&version, image.data() + 4, sizeof(version));
  if (version < 1 || version > kVersion) {
    throw H5LiteError(H5LiteError::Kind::Format, "h5lite: unsupported version in " + path);
  }

  size_t body_end = image.size();
  bool crc_ok = true;
  if (version >= 2) {
    if (image.size() < kHeaderBytes + sizeof(uint32_t)) {
      throw H5LiteError(H5LiteError::Kind::Truncated, "h5lite: truncated file: " + path);
    }
    body_end -= sizeof(uint32_t);
    uint32_t stored;
    std::memcpy(&stored, image.data() + body_end, sizeof(stored));
    crc_ok = stored == crc32(image.data() + kHeaderBytes, body_end - kHeaderBytes);
  }

  Reader r{image.data(), body_end, kHeaderBytes, path};
  const uint32_t count = r.pod<uint32_t>();
  H5LiteFile out;
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t name_len = r.pod<uint32_t>();
    // Check the length against the bytes left before sizing the name, so a
    // corrupted length reports as damage instead of a 4 GiB zero-fill.
    if (name_len > r.size - r.pos) {
      throw H5LiteError(H5LiteError::Kind::Truncated, "h5lite: truncated dataset name in " + path);
    }
    std::string name(name_len, '\0');
    r.bytes(name.data(), name_len);
    const uint8_t dtype = r.pod<uint8_t>();
    if (dtype > 1) {
      throw H5LiteError(H5LiteError::Kind::Format, "h5lite: bad dtype " + std::to_string(dtype) +
                                                       " for dataset " + name + " in " + path);
    }
    const uint32_t rank = r.pod<uint32_t>();
    Dataset ds;
    uint64_t numel = 1;
    for (uint32_t k = 0; k < rank; ++k) {
      const int64_t d = r.pod<int64_t>();
      if (d < 0) {
        throw H5LiteError(H5LiteError::Kind::Format, "h5lite: negative dataset size in " + path);
      }
      ds.shape.push_back(d);
      if (d != 0 && numel > UINT64_MAX / static_cast<uint64_t>(d)) {
        throw H5LiteError(H5LiteError::Kind::Truncated,
                          "h5lite: dataset larger than file: " + path);
      }
      numel *= static_cast<uint64_t>(d);
    }
    // Bound the allocation by the bytes actually left in the file, so a
    // corrupted shape reports as damage instead of a multi-exabyte alloc.
    const size_t elem = dtype == 0 ? sizeof(float) : sizeof(int64_t);
    if (numel > (r.size - r.pos) / elem) {
      throw H5LiteError(H5LiteError::Kind::Truncated, "h5lite: truncated dataset " + name +
                                                          " in " + path);
    }
    if (dtype == 0) {
      std::vector<float> v(static_cast<size_t>(numel));
      r.bytes(v.data(), v.size() * sizeof(float));
      ds.data = std::move(v);
    } else {
      std::vector<int64_t> v(static_cast<size_t>(numel));
      r.bytes(v.data(), v.size() * sizeof(int64_t));
      ds.data = std::move(v);
    }
    out.datasets_[name] = std::move(ds);
  }
  // A truncated tail surfaces from the Reader as Kind::Truncated above; a
  // file that parses cleanly but fails the checksum is genuine bit damage.
  if (!crc_ok) throw H5LiteError(H5LiteError::Kind::Crc, "h5lite: CRC mismatch in " + path);
  return out;
}

}  // namespace df::io
