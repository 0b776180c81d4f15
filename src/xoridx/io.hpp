// Umbrella header: durable I/O and fault injection.
//
// AtomicFileWriter / AtomicOstream / write_file_atomic land every
// artifact crash-safely (temp file + fsync + rename), and
// seal_checksum / open_checksum write and check the checksum trailer of
// shard reports and the fleet manifest; the fail::
// namespace is the failpoint registry that chaos tests use to inject
// ENOSPC, delays and crashes at named sites.
#pragma once

#include "fail/failpoint.hpp"
#include "io/atomic_file.hpp"
