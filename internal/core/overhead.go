package core

import (
	"authmem/internal/ctr"
	"authmem/internal/ecc"
)

// Overhead breaks down the DRAM storage cost of a design point, in bytes,
// for the Figure 1 accounting. The baseline (monolithic counters + inline
// MACs) lands around 22% of the protected region; the proposed combination
// (delta counters + MAC-in-ECC) lands around 2%.
type Overhead struct {
	// RegionBytes is the protected data size.
	RegionBytes uint64
	// CounterBytes is the counter-metadata storage.
	CounterBytes uint64
	// TreeBytes is the off-chip integrity-tree node storage.
	TreeBytes uint64
	// MACBytes is dedicated MAC storage (zero under MAC-in-ECC).
	MACBytes uint64
	// ECCBytes is the codec's check-bit provisioning: CheckBytes per
	// 64-byte block (12.5% for the 8-byte SEC-DED and MAC-in-ECC lanes).
	// It is reported for context but not charged to the encryption
	// scheme: a standard ECC DIMM provisions it whether or not encryption
	// is on.
	ECCBytes uint64
	// Codec is the placement's ECC codec name.
	Codec string
	// TreeLevels is the off-chip read depth (node levels + the counter
	// block itself).
	TreeLevels int
}

// EncryptionOverheadBytes is the storage attributable to authenticated
// encryption: counters + tree + dedicated MACs.
func (o Overhead) EncryptionOverheadBytes() uint64 {
	return o.CounterBytes + o.TreeBytes + o.MACBytes
}

// EncryptionOverheadPct is EncryptionOverheadBytes relative to the region.
func (o Overhead) EncryptionOverheadPct() float64 {
	return 100 * float64(o.EncryptionOverheadBytes()) / float64(o.RegionBytes)
}

// ComputeOverhead derives the storage breakdown for a configuration without
// building any model state.
func ComputeOverhead(cfg Config) (Overhead, error) {
	if err := cfg.Validate(); err != nil {
		return Overhead{}, err
	}
	cod := cfg.resolveCodec()
	o := Overhead{
		RegionBytes: cfg.RegionBytes,
		Codec:       cod.Name(),
		ECCBytes:    cfg.DataBlocks() * uint64(cod.CheckBytes()),
	}
	scheme, err := ctr.NewScheme(cfg.Scheme)
	if err != nil {
		return Overhead{}, err
	}

	// Figure 1 counts raw metadata bits, as the paper does (56-bit
	// counters = 10.9%, not the 64-bit slots they occupy): grouped
	// schemes genuinely commit whole 64-byte blocks, the monolithic
	// baseline is charged its 56 counter bits.
	bitsPerBlock := scheme.MetadataBits()
	if cfg.Scheme == ctr.Monolithic {
		bitsPerBlock = ctr.RefBits
	}
	o.CounterBytes = uint64(float64(cfg.DataBlocks()) * bitsPerBlock / 8)

	shape, err := cfg.TreeShape()
	if err != nil {
		return Overhead{}, err
	}
	o.TreeBytes = shape.OffChipBytes()
	o.TreeLevels = shape.OffChipLevels() + 1 // + the counter-block read

	if cfg.Placement == MACInline {
		// 56-bit tags per 64-byte block (SGX's ~11%).
		o.MACBytes = cfg.DataBlocks() * ecc.TagBits / 8
	}
	return o, nil
}
