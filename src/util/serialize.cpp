#include "util/serialize.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>

namespace croute {

void ByteWriter::size_mismatch(std::uint64_t wanted) const {
  throw std::logic_error(
      "serialize: encoder and size function disagree at byte offset " +
      std::to_string(pos_) + " of " + std::to_string(size_) +
      (wanted != 0 ? " (wanted " + std::to_string(wanted) + " more bytes)"
                   : std::string(" (buffer not filled)")));
}

void SpanReader::truncated(std::uint64_t wanted) const {
  throw std::invalid_argument("truncated at byte offset " +
                              std::to_string(offset()) + " (wanted " +
                              std::to_string(wanted) + " more bytes)");
}

void SpanReader::implausible(std::uint64_t back, const char* what) const {
  throw std::invalid_argument(std::string("implausible ") + what +
                              " at byte offset " +
                              std::to_string(offset() - back));
}

FileBytes read_file_bytes(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw std::invalid_argument("cannot open " + path + ": " +
                                std::strerror(errno));
  }
  FileBytes out;
  struct stat st {};
  const bool sized = ::fstat(fd, &st) == 0;
  if (sized) {
    out.size = static_cast<std::uint64_t>(st.st_size);
    out.data = std::make_unique_for_overwrite<char[]>(out.size);
  }
  // One read for the whole file; the loop only resumes reads the kernel
  // split (signals, > 2 GiB transfers).
  std::uint64_t got = 0;
  while (sized && got < out.size) {
    const ssize_t n = ::pread(fd, out.data.get() + got, out.size - got,
                              static_cast<off_t>(got));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<std::uint64_t>(n);
  }
  const int err = errno;
  ::close(fd);
  if (!sized || got != out.size) {
    throw std::invalid_argument("cannot read " + path + ": " +
                                (sized ? "short read" : std::strerror(err)));
  }
  return out;
}

}  // namespace croute
