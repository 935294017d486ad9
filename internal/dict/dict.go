// Package dict implements per-column dictionary encoding: the mechanism
// that turns string dimension values ("US", "checkout_service", ...) into
// the dense uint32 ids Cubrick's granular partitioning operates on. Each
// dimension column gets a Dictionary; ingestion assigns ids on first
// sight, queries look values up without assigning, and results decode ids
// back to labels.
package dict

import (
	"errors"
	"fmt"
	"sync"
)

// ErrFull is returned when a dictionary reaches its capacity — the
// dimension's value domain [0, Max) in the brick schema.
var ErrFull = errors.New("dict: dictionary full")

// ErrUnknown is returned by Lookup for values never ingested.
var ErrUnknown = errors.New("dict: unknown value")

// Dictionary is a bidirectional string↔id map with a fixed capacity. It is
// safe for concurrent use.
type Dictionary struct {
	capacity uint32

	mu   sync.RWMutex
	ids  map[string]uint32
	strs []string
}

// New returns an empty dictionary with the given capacity (the brick
// dimension's Max).
func New(capacity uint32) *Dictionary {
	if capacity == 0 {
		capacity = 1
	}
	return &Dictionary{capacity: capacity, ids: make(map[string]uint32)}
}

// Encode returns the id of value, assigning a new id on first sight
// (ingestion path). It returns ErrFull when the capacity is exhausted.
func (d *Dictionary) Encode(value string) (uint32, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[value]; ok {
		return id, nil
	}
	if uint32(len(d.strs)) >= d.capacity {
		return 0, fmt.Errorf("%w: capacity %d", ErrFull, d.capacity)
	}
	id := uint32(len(d.strs))
	d.ids[value] = id
	d.strs = append(d.strs, value)
	return id, nil
}

// Lookup returns the id of value without assigning (query path).
func (d *Dictionary) Lookup(value string) (uint32, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.ids[value]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknown, value)
	}
	return id, nil
}

// Decode returns the string for an id.
func (d *Dictionary) Decode(id uint32) (string, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) >= len(d.strs) {
		return "", fmt.Errorf("%w: id %d", ErrUnknown, id)
	}
	return d.strs[id], nil
}

// Set is a named collection of dictionaries — one per dictionary-encoded
// dimension of a table.
type Set struct {
	mu    sync.RWMutex
	dicts map[string]*Dictionary
}

// NewSet returns an empty set.
func NewSet() *Set {
	return &Set{dicts: make(map[string]*Dictionary)}
}

// Add registers a dictionary for a column.
func (s *Set) Add(column string, capacity uint32) *Dictionary {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.dicts[column]
	if !ok {
		d = New(capacity)
		s.dicts[column] = d
	}
	return d
}

// Get returns the dictionary for a column, or nil if the column is not
// dictionary-encoded.
func (s *Set) Get(column string) *Dictionary {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dicts[column]
}
