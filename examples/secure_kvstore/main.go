// Secure key-value store: a small fixed-slot KV store whose backing memory
// is the authenticated encrypted memory, demonstrating how a data structure
// survives on attacker-controlled DRAM.
//
// This mirrors the paper's motivating deployment: the host's physical
// memory is untrusted (bus snooping, cold-boot), but the application sees
// ordinary load/store semantics with confidentiality, integrity, and
// freshness enforced at the 64-byte block level.
//
// Run with:
//
//	go run ./examples/secure_kvstore
package main

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"log"

	"authmem"
	"authmem/adversary"
)

// Store is a fixed-capacity open-addressed hash table over secure memory.
// Each slot is one 64-byte block: 2-byte key length, 14-byte key, 2-byte
// value length, 46-byte value.
type Store struct {
	mem   *authmem.Memory
	slots uint64
}

const (
	maxKey   = 14
	maxValue = 46
)

// NewStore creates a store with the given slot count.
func NewStore(slots uint64) (*Store, error) {
	cfg := authmem.DefaultConfig(slots * authmem.BlockSize)
	cfg.Key = make([]byte, authmem.KeySize)
	if _, err := rand.Read(cfg.Key); err != nil {
		return nil, err
	}
	mem, err := authmem.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Store{mem: mem, slots: slots}, nil
}

func (s *Store) hash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64() % s.slots
}

// Put stores a value under a key.
func (s *Store) Put(key, value string) error {
	if len(key) == 0 || len(key) > maxKey {
		return fmt.Errorf("key length %d out of range 1..%d", len(key), maxKey)
	}
	if len(value) > maxValue {
		return fmt.Errorf("value length %d exceeds %d", len(value), maxValue)
	}
	var block [authmem.BlockSize]byte
	for probe := uint64(0); probe < s.slots; probe++ {
		slot := (s.hash(key) + probe) % s.slots
		if _, err := s.mem.Read(slot*authmem.BlockSize, block[:]); err != nil {
			return err
		}
		klen := binary.LittleEndian.Uint16(block[0:2])
		existing := string(block[2 : 2+klen])
		if klen != 0 && existing != key {
			continue // occupied by another key
		}
		binary.LittleEndian.PutUint16(block[0:2], uint16(len(key)))
		copy(block[2:16], key)
		binary.LittleEndian.PutUint16(block[16:18], uint16(len(value)))
		clear(block[18:])
		copy(block[18:], value)
		return s.mem.Write(slot*authmem.BlockSize, block[:])
	}
	return errors.New("store full")
}

// Get fetches a key's value.
func (s *Store) Get(key string) (string, error) {
	var block [authmem.BlockSize]byte
	for probe := uint64(0); probe < s.slots; probe++ {
		slot := (s.hash(key) + probe) % s.slots
		if _, err := s.mem.Read(slot*authmem.BlockSize, block[:]); err != nil {
			return "", err
		}
		klen := binary.LittleEndian.Uint16(block[0:2])
		if klen == 0 {
			return "", fmt.Errorf("key %q not found", key)
		}
		if string(block[2:2+klen]) != key {
			continue
		}
		vlen := binary.LittleEndian.Uint16(block[16:18])
		return string(block[18 : 18+vlen]), nil
	}
	return "", fmt.Errorf("key %q not found", key)
}

func main() {
	store, err := NewStore(4096)
	if err != nil {
		log.Fatal(err)
	}

	// Ordinary operation.
	pairs := map[string]string{
		"api-token":  "tok_9f8e7d6c5b4a",
		"db-passwd":  "correct horse battery staple",
		"session-42": "alice@example.com",
	}
	for k, v := range pairs {
		if err := store.Put(k, v); err != nil {
			log.Fatal(err)
		}
	}
	for k, want := range pairs {
		got, err := store.Get(k)
		if err != nil {
			log.Fatal(err)
		}
		if got != want {
			log.Fatalf("%s: got %q want %q", k, got, want)
		}
	}
	fmt.Printf("stored and verified %d secrets\n", len(pairs))

	// Update a value, then have the attacker roll DRAM back to the old
	// one — the slot's ciphertext, ECC lane and counter block, written
	// back raw where they were read: the stale token must not be accepted.
	tokenSlot := store.hash("api-token") * authmem.BlockSize
	replayStale, err := record(store.mem, tokenSlot)
	if err != nil {
		log.Fatal(err)
	}
	if err := store.Put("api-token", "tok_ROTATED_0001"); err != nil {
		log.Fatal(err)
	}
	replayGood, err := record(store.mem, tokenSlot)
	if err != nil {
		log.Fatal(err)
	}
	if err := replayStale(); err != nil {
		log.Fatal(err)
	}
	if _, err := store.Get("api-token"); err != nil {
		fmt.Println("rollback of rotated token rejected:", err)
	} else {
		log.Fatal("rollback attack succeeded!")
	}
	// Once a replay is detected the region stays poisoned (hardware would
	// machine-check); put DRAM back to the state the tree expects.
	if err := replayGood(); err != nil {
		log.Fatal(err)
	}

	// Memory faults, by contrast, heal transparently.
	if err := store.Put("api-token", "tok_ROTATED_0002"); err != nil {
		log.Fatal(err)
	}
	data, err := adversary.LocateAddr(store.mem, adversary.Data, tokenSlot)
	if err != nil {
		log.Fatal(err)
	}
	if err := adversary.FlipBit(store.mem, data, 137); err != nil {
		log.Fatal(err)
	}
	v, err := store.Get("api-token")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after a DRAM bit flip, token still reads back: %q\n", v)

	st := store.mem.Stats()
	fmt.Printf("engine stats: %d reads, %d writes, %d integrity failures, %d bits corrected\n",
		st.Reads, st.Writes, st.IntegrityFailures, st.CorrectedDataBits)
}

// record reads the block at addr's ciphertext, ECC lane and counter block off
// the bus; the replay it returns writes them back where they were read.
func record(mem *authmem.Memory, addr uint64) (replay func() error, err error) {
	var phys [3]uint64
	saved := [3][]byte{make([]byte, authmem.BlockSize), make([]byte, 8), make([]byte, authmem.BlockSize)}
	for i, p := range []adversary.Plane{adversary.Data, adversary.Lane, adversary.Counter} {
		if phys[i], err = adversary.LocateAddr(mem, p, addr); err == nil {
			err = adversary.ReadRaw(mem, phys[i], saved[i])
		}
		if err != nil {
			return nil, err
		}
	}
	return func() (err error) {
		for i := 0; i < len(phys) && err == nil; i++ {
			err = adversary.WriteRaw(mem, phys[i], saved[i])
		}
		return err
	}, nil
}
