// Package cluster implements the routing tier over a fleet of engine
// nodes: a consistent-hash ring that maps drive models (and serials) to
// replication groups, and an HTTP router that sends writes to each
// group's leader, fans reads across its healthy replicas, and promotes
// a follower when a leader stops answering health checks.
package cluster

import (
	"fmt"
	"sort"
)

// vnodesPerMember is the ring's virtual-node fan-out. 64 points per
// member keeps the load imbalance of a random key set under a few
// percent while the ring stays small enough to rebuild instantly.
const vnodesPerMember = 64

// Ring is an immutable consistent-hash ring over named members.
// Lookups cost one hash and one binary search; adding or removing a
// member moves only ~1/N of the key space (build a new Ring for that —
// membership changes are a deployment action, not a data-path one).
type Ring struct {
	members []string
	points  []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	member int
}

// NewRing builds a ring over the given member names (order does not
// affect placement; the name itself is hashed).
func NewRing(members []string) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	seen := make(map[string]bool, len(members))
	r := &Ring{
		members: append([]string(nil), members...),
		points:  make([]ringPoint, 0, len(members)*vnodesPerMember),
	}
	for i, m := range members {
		if m == "" {
			return nil, fmt.Errorf("cluster: empty member name")
		}
		if seen[m] {
			return nil, fmt.Errorf("cluster: duplicate member %q", m)
		}
		seen[m] = true
		for v := 0; v < vnodesPerMember; v++ {
			r.points = append(r.points, ringPoint{
				hash:   fnv64a(fmt.Sprintf("%s#%d", m, v)),
				member: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r, nil
}

// Member returns the member owning key: the first ring point clockwise
// from the key's hash. Deterministic across processes (FNV-1a, no
// per-process seeding), so every router instance agrees.
func (r *Ring) Member(key string) string {
	h := fnv64a(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around
	}
	return r.members[r.points[i].member]
}

// fnv64a is the 64-bit FNV-1a hash with a murmur-style finalizer,
// inlined so placement never depends on hash/maphash process seeds.
// Raw FNV-1a avalanches poorly on the short keys a ring hashes (member
// names, model numbers): the high bits — which decide ring ordering —
// stay correlated and arcs clump badly. The finalizer fixes that.
func fnv64a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
