// Run-directory file protocol of the distributed sweep executors.
//
// Shard processes share nothing but a run directory.  Every artifact —
// exchange deltas, shard results — is published with the same two-step
// protocol on top of POSIX rename atomicity; the implementation lives in
// core/fsio.hpp (shared with the net blob store and the serve daemon's
// session journals), and this header re-exports it under the historical
// dist:: names so the executor code reads as before.
//
// DESIGN.md §8 documents the full directory layout and determinism rules.
#pragma once

#include "core/fsio.hpp"

namespace critter::dist {

using core::append_file;
using core::file_exists;
using core::make_dir;
using core::make_temp_dir;
using core::monotonic_s;
using core::publish_file;
using core::published;
using core::read_file;
using core::read_published;
using core::remove_dir_tree;
using core::sleep_ms;
using core::sleep_us;
using core::write_file;
using core::write_file_atomic;

}  // namespace critter::dist
