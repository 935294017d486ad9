// Package core implements the paper's primary contribution: partial
// sharding. It provides the table-partition → shard mapping function
// (§IV-A), the collision taxonomy (partition vs shard collisions), the
// partitions-per-table policy with size-triggered re-partitioning (§IV-B),
// the query-coordinator selection strategies (§IV-C), and the fan-out
// arithmetic that distinguishes fully- from partially-sharded execution
// (§II).
package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
)

// PartitionName returns the internal name of one partition of a table,
// "table#N". '#' is reserved and not allowed in table names (§IV-A).
func PartitionName(table string, partition int) string {
	return table + "#" + strconv.Itoa(partition)
}

// SplitPartitionName parses a "table#N" name.
func SplitPartitionName(name string) (table string, partition int, err error) {
	i := strings.LastIndexByte(name, '#')
	if i < 0 {
		return "", 0, fmt.Errorf("core: %q is not a partition name", name)
	}
	p, err := strconv.Atoi(name[i+1:])
	if err != nil || p < 0 {
		return "", 0, fmt.Errorf("core: bad partition number in %q", name)
	}
	return name[:i], p, nil
}

// ValidateTableName rejects names that are empty or contain the reserved
// '#' separator.
func ValidateTableName(name string) error {
	if name == "" {
		return errors.New("core: empty table name")
	}
	if strings.ContainsRune(name, '#') {
		return fmt.Errorf("core: table name %q contains reserved '#'", name)
	}
	return nil
}

// RouteRow returns the partition a row belongs to: a deterministic hash of
// the row's dimension values modulo the partition count, which keeps skew
// between partitions low (§IV-A: "minimize the skew between partitions")
// and lets re-partitioning re-derive placements.
func RouteRow(dims []uint32, partitions int) int {
	h := fnv.New64a()
	var b [4]byte
	for _, d := range dims {
		b[0] = byte(d)
		b[1] = byte(d >> 8)
		b[2] = byte(d >> 16)
		b[3] = byte(d >> 24)
		h.Write(b[:])
	}
	// FNV's low bits correlate on short structured inputs; a splitmix64
	// finalizer avalanches them before the modulo.
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(partitions))
}

// RouteBatch splits a row-major batch by RouteRow and hands fn each
// partition's rows, in partition order and in their order in the batch,
// skipping partitions that get none. It stops at fn's first error. Both
// planes' loads route through it.
func RouteBatch(dims [][]uint32, metrics [][]float64, partitions int, fn func(p int, dims [][]uint32, metrics [][]float64) error) error {
	byPart := make([][]int, partitions) // partition -> row indexes
	for i := range dims {
		p := RouteRow(dims[i], partitions)
		byPart[p] = append(byPart[p], i)
	}
	for p, idx := range byPart {
		if len(idx) == 0 {
			continue
		}
		bd := make([][]uint32, len(idx))
		bm := make([][]float64, len(idx))
		for j, i := range idx {
			bd[j] = dims[i]
			bm[j] = metrics[i]
		}
		if err := fn(p, bd, bm); err != nil {
			return err
		}
	}
	return nil
}

// Mapper maps table partitions to SM's flat shard key space
// [0, MaxShards). Implementations must be deterministic: every client and
// server derives the same shard for the same partition with no metadata
// lookup.
type Mapper interface {
	// Shard returns the shard id for one partition of a table.
	Shard(table string, partition int) int64
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	// Finalize: raw FNV of near-identical strings ("t#0" vs "t#1") is not
	// uniform modulo small key spaces, which would mask the birthday
	// collisions the naive mapping is known for (§IV-A).
	return mix64(h.Sum64())
}

// mix64 is a splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NaiveMapper hashes every partition name independently:
// hash(table#N) % MaxShards. This is the paper's first, rejected approach:
// it is "susceptible to collisions within the same table", which double a
// server's work for that table (§IV-A).
type NaiveMapper struct {
	MaxShards int64
}

// Shard implements Mapper.
func (m NaiveMapper) Shard(table string, partition int) int64 {
	return int64(hashString(PartitionName(table, partition)) % uint64(m.MaxShards))
}

// MonotonicMapper is Cubrick's production mapping (§IV-A): hash only
// partition zero and assign the remaining partitions consecutive shard
// ids, wrapping around the key space. This prevents collisions within the
// same table as long as the table has at most MaxShards partitions.
type MonotonicMapper struct {
	MaxShards int64
}

// Shard implements Mapper.
func (m MonotonicMapper) Shard(table string, partition int) int64 {
	base := hashString(PartitionName(table, 0)) % uint64(m.MaxShards)
	return int64((base + uint64(partition)) % uint64(m.MaxShards))
}

// Shards returns the shard ids for all partitions of a table under the
// given mapper.
func Shards(m Mapper, table string, partitions int) []int64 {
	out := make([]int64, partitions)
	for p := 0; p < partitions; p++ {
		out[p] = m.Shard(table, p)
	}
	return out
}
