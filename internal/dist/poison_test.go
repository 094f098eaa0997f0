package dist

import (
	"testing"

	"repro/internal/search"
)

// TestClusterByteIdenticalUnderPoison is TestClusterByteIdentical with
// every released execution arena overwritten before its result is used:
// the partial groups a shard encodes (ExecutePartial's, which the caller
// owns) and the pages a single node serves (Execute's, copied out by
// fold) must not point into pooled memory.
func TestClusterByteIdenticalUnderPoison(t *testing.T) {
	defer search.SetArenaPoison(true)()
	TestClusterByteIdentical(t)
}
