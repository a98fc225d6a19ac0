#include "io/model_artifact.h"

#include <cstring>
#include <filesystem>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace df::io {

namespace {

constexpr char kMagic[4] = {'D', 'F', 'C', 'A'};
constexpr uint64_t kHeaderBytes = 16;  // magic + version + payload_bytes
constexpr uint64_t kBlobAlign = 64;

uint64_t align_up(uint64_t v, uint64_t to) { return (v + to - 1) / to * to; }

template <typename T>
void append_pod(std::string& buf, const T& v) {
  buf.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

void fsync_fd_path(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
#else
  (void)path;
#endif
}

}  // namespace

void ArtifactWriter::add_section(const std::string& name, uint8_t dtype,
                                 std::vector<int64_t> dims, const void* data, size_t elem_bytes) {
  Pending p;
  p.dtype = dtype;
  p.dims = std::move(dims);
  int64_t n = 1;
  for (int64_t d : p.dims) n *= d;
  p.bytes.resize(static_cast<size_t>(n) * elem_bytes);
  // An empty section's buffer is null, and memcpy forbids null even for
  // zero bytes.
  if (!p.bytes.empty()) std::memcpy(p.bytes.data(), data, p.bytes.size());
  sections_[name] = std::move(p);
}

void ArtifactWriter::add_floats(const std::string& name, std::vector<int64_t> dims,
                                const float* data) {
  add_section(name, 0, std::move(dims), data, sizeof(float));
}

void ArtifactWriter::add_ints(const std::string& name, std::vector<int64_t> dims,
                              const int64_t* data) {
  add_section(name, 1, std::move(dims), data, sizeof(int64_t));
}

void ArtifactWriter::add_scalar(const std::string& name, int64_t v) {
  add_ints(name, {1}, &v);
}

void ArtifactWriter::add_int8s(const std::string& name, std::vector<int64_t> dims,
                               const int8_t* data) {
  add_section(name, 2, std::move(dims), data, sizeof(int8_t));
}

void ArtifactWriter::add_int32s(const std::string& name, std::vector<int64_t> dims,
                                const int32_t* data) {
  add_section(name, 3, std::move(dims), data, sizeof(int32_t));
}

void ArtifactWriter::save(const std::string& path) const {
  // Two passes: first size the directory (its length shifts every blob
  // offset), then emit directory + aligned blobs.
  uint64_t dir_bytes = sizeof(uint32_t);
  for (const auto& [name, p] : sections_) {
    dir_bytes += sizeof(uint32_t) + name.size() + sizeof(uint8_t) + sizeof(uint32_t) +
                 p.dims.size() * sizeof(int64_t) + 2 * sizeof(uint64_t);
  }

  // Assign absolute blob offsets in directory (= map) order.
  std::map<std::string, uint64_t> offsets;
  uint64_t cursor = align_up(kHeaderBytes + dir_bytes, kBlobAlign);
  for (const auto& [name, p] : sections_) {
    offsets[name] = cursor;
    cursor = align_up(cursor + p.bytes.size(), kBlobAlign);
  }

  std::string payload;
  payload.reserve(static_cast<size_t>(cursor - kHeaderBytes));
  append_pod(payload, static_cast<uint32_t>(sections_.size()));
  for (const auto& [name, p] : sections_) {
    append_pod(payload, static_cast<uint32_t>(name.size()));
    payload.append(name);
    append_pod(payload, p.dtype);
    append_pod(payload, static_cast<uint32_t>(p.dims.size()));
    for (int64_t d : p.dims) append_pod(payload, d);
    append_pod(payload, offsets[name]);
    append_pod(payload, static_cast<uint64_t>(p.bytes.size()));
  }
  for (const auto& [name, p] : sections_) {
    payload.resize(static_cast<size_t>(offsets[name] - kHeaderBytes), '\0');
    payload.append(p.bytes.data(), p.bytes.size());
  }
  // Trailing pad so the final blob's slack is part of the checksummed
  // payload and the payload length is what the offsets promise.
  payload.resize(static_cast<size_t>(cursor - kHeaderBytes), '\0');

  const uint32_t crc = crc32(payload.data(), payload.size());
  const uint64_t payload_bytes = payload.size();

  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary);
    if (!f)
      throw H5LiteError(H5LiteError::Kind::Open, "artifact: cannot open for write: " + tmp);
    f.write(kMagic, 4);
    f.write(reinterpret_cast<const char*>(&kArtifactVersion), sizeof(kArtifactVersion));
    f.write(reinterpret_cast<const char*>(&payload_bytes), sizeof(payload_bytes));
    f.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    f.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
    f.close();
    if (f.fail())
      throw H5LiteError(H5LiteError::Kind::Open, "artifact: write failed: " + tmp);
  }
  // Same durability contract as h5lite::save_atomic: file bytes synced
  // before the rename publishes them, parent directory synced after.
  fsync_fd_path(tmp);
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw H5LiteError(H5LiteError::Kind::Open,
                      "artifact: atomic rename failed: " + path + " (" + ec.message() + ")");
  }
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  fsync_fd_path(parent.empty() ? "." : parent.string());
}

std::shared_ptr<ArtifactReader> ArtifactReader::open(const std::string& path) {
  std::shared_ptr<ArtifactReader> r(new ArtifactReader());
  r->path_ = path;

#if defined(__unix__) || defined(__APPLE__)
  {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
      throw H5LiteError(H5LiteError::Kind::Open, "artifact: cannot open: " + path);
    const off_t end = ::lseek(fd, 0, SEEK_END);
    if (end > 0) {
      void* map = ::mmap(nullptr, static_cast<size_t>(end), PROT_READ, MAP_SHARED, fd, 0);
      if (map != MAP_FAILED) {
        r->data_ = static_cast<const char*>(map);
        r->size_ = static_cast<size_t>(end);
        r->mapped_ = true;
      }
    }
    ::close(fd);
  }
#endif
  if (!r->mapped_) {
    std::ifstream f(path, std::ios::binary | std::ios::ate);
    if (!f) throw H5LiteError(H5LiteError::Kind::Open, "artifact: cannot open: " + path);
    const std::streamsize sz = f.tellg();
    f.seekg(0);
    r->owned_.resize(static_cast<size_t>(sz));
    f.read(r->owned_.data(), sz);
    if (!f) throw H5LiteError(H5LiteError::Kind::Open, "artifact: read failed: " + path);
    r->data_ = r->owned_.data();
    r->size_ = r->owned_.size();
  }

  const char* d = r->data_;
  const size_t size = r->size_;
  if (size < kHeaderBytes || std::memcmp(d, kMagic, 4) != 0)
    throw H5LiteError(H5LiteError::Kind::Format, "artifact: bad magic in " + path);
  uint32_t version;
  std::memcpy(&version, d + 4, sizeof(version));
  if (version != kArtifactVersion) {
    throw H5LiteError(H5LiteError::Kind::Format,
                      "artifact: unsupported version " + std::to_string(version) + " in " + path +
                          " (reader supports " + std::to_string(kArtifactVersion) +
                          "; recompile the artifact)");
  }
  uint64_t payload_bytes;
  std::memcpy(&payload_bytes, d + 8, sizeof(payload_bytes));
  if (payload_bytes > size - kHeaderBytes ||
      size - kHeaderBytes - payload_bytes < sizeof(uint32_t)) {
    throw H5LiteError(H5LiteError::Kind::Truncated, "artifact: truncated file: " + path);
  }
  uint32_t stored_crc;
  std::memcpy(&stored_crc, d + kHeaderBytes + payload_bytes, sizeof(stored_crc));
  if (stored_crc != crc32(d + kHeaderBytes, static_cast<size_t>(payload_bytes)))
    throw H5LiteError(H5LiteError::Kind::Crc, "artifact: CRC mismatch in " + path);

  // Directory parse over the validated payload. Every blob must land fully
  // inside the payload; any overrun rejects the whole file.
  size_t pos = kHeaderBytes;
  const size_t payload_end = static_cast<size_t>(kHeaderBytes + payload_bytes);
  auto need = [&](size_t n) {
    if (pos + n > payload_end)
      throw H5LiteError(H5LiteError::Kind::Truncated, "artifact: truncated directory: " + path);
  };
  auto read_u32 = [&]() {
    need(sizeof(uint32_t));
    uint32_t v;
    std::memcpy(&v, d + pos, sizeof(v));
    pos += sizeof(v);
    return v;
  };
  auto read_u64 = [&]() {
    need(sizeof(uint64_t));
    uint64_t v;
    std::memcpy(&v, d + pos, sizeof(v));
    pos += sizeof(v);
    return v;
  };
  const uint32_t count = read_u32();
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t name_len = read_u32();
    need(name_len);
    std::string name(d + pos, name_len);
    pos += name_len;
    need(1);
    ArtifactSection s;
    s.dtype = static_cast<uint8_t>(d[pos]);
    ++pos;
    if (s.dtype > 3)
      throw H5LiteError(H5LiteError::Kind::Format, "artifact: bad dtype in " + path);
    const uint32_t rank = read_u32();
    uint64_t numel = 1;
    for (uint32_t k = 0; k < rank; ++k) {
      need(sizeof(int64_t));
      int64_t dim;
      std::memcpy(&dim, d + pos, sizeof(dim));
      pos += sizeof(dim);
      if (dim < 0)
        throw H5LiteError(H5LiteError::Kind::Format, "artifact: negative dim in " + path);
      s.dims.push_back(dim);
      if (dim != 0 && numel > UINT64_MAX / static_cast<uint64_t>(dim))
        throw H5LiteError(H5LiteError::Kind::Truncated, "artifact: blob larger than file: " + path);
      numel *= static_cast<uint64_t>(dim);
    }
    s.byte_offset = read_u64();
    s.byte_len = read_u64();
    const uint64_t elem = s.dtype == 0   ? sizeof(float)
                          : s.dtype == 1 ? sizeof(int64_t)
                          : s.dtype == 2 ? sizeof(int8_t)
                                         : sizeof(int32_t);
    if (s.byte_len != numel * elem || s.byte_offset % kBlobAlign != 0 ||
        s.byte_offset < kHeaderBytes || s.byte_offset > payload_end ||
        s.byte_len > payload_end - s.byte_offset) {
      throw H5LiteError(H5LiteError::Kind::Truncated,
                        "artifact: blob out of bounds: " + name + " in " + path);
    }
    r->sections_[std::move(name)] = std::move(s);
  }
  return r;
}

ArtifactReader::~ArtifactReader() {
#if defined(__unix__) || defined(__APPLE__)
  if (mapped_ && data_ != nullptr) ::munmap(const_cast<char*>(data_), size_);
#endif
}

const ArtifactSection& ArtifactReader::section(const std::string& name) const {
  auto it = sections_.find(name);
  if (it == sections_.end())
    throw H5LiteError(H5LiteError::Kind::Format, "artifact: no section " + name + " in " + path_);
  return it->second;
}

const float* ArtifactReader::floats(const std::string& name) const {
  const ArtifactSection& s = section(name);
  if (s.dtype != 0)
    throw H5LiteError(H5LiteError::Kind::Format, "artifact: " + name + " is not float32");
  return reinterpret_cast<const float*>(data_ + s.byte_offset);
}

const int64_t* ArtifactReader::ints(const std::string& name) const {
  const ArtifactSection& s = section(name);
  if (s.dtype != 1)
    throw H5LiteError(H5LiteError::Kind::Format, "artifact: " + name + " is not int64");
  return reinterpret_cast<const int64_t*>(data_ + s.byte_offset);
}

const int8_t* ArtifactReader::int8s(const std::string& name) const {
  const ArtifactSection& s = section(name);
  if (s.dtype != 2)
    throw H5LiteError(H5LiteError::Kind::Format, "artifact: " + name + " is not int8");
  return reinterpret_cast<const int8_t*>(data_ + s.byte_offset);
}

const int32_t* ArtifactReader::int32s(const std::string& name) const {
  const ArtifactSection& s = section(name);
  if (s.dtype != 3)
    throw H5LiteError(H5LiteError::Kind::Format, "artifact: " + name + " is not int32");
  return reinterpret_cast<const int32_t*>(data_ + s.byte_offset);
}

int64_t ArtifactReader::scalar(const std::string& name) const {
  const ArtifactSection& s = section(name);
  if (s.dtype != 1 || s.numel() != 1)
    throw H5LiteError(H5LiteError::Kind::Format, "artifact: " + name + " is not a scalar");
  return *reinterpret_cast<const int64_t*>(data_ + s.byte_offset);
}

}  // namespace df::io
