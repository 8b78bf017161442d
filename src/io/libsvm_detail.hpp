// Internal seam of the LibSVM file reader, for tests that pin where the
// parallel reader cuts a file. Not part of the public API.
#pragma once

#include <cstddef>
#include <string>

#include "io/libsvm.hpp"

namespace isasgd::io::detail {

/// read_libsvm_file with the number of byte ranges forced to `parts` (> 0)
/// instead of chosen from the file size and hardware_concurrency(). Starts
/// up to parts - 1 threads and joins them before returning.
sparse::CsrMatrix read_libsvm_file_parts(const std::string& path,
                                         const LibsvmReadOptions& options,
                                         std::size_t parts);

}  // namespace isasgd::io::detail
