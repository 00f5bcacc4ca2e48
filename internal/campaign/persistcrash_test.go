package campaign

import (
	"bytes"
	"encoding/binary"
	"testing"

	"authmem/internal/core"
	"authmem/internal/ctr"
)

func TestPersistCrashPhase(t *testing.T) {
	for _, pt := range []struct {
		scheme    ctr.Kind
		placement core.MACPlacement
	}{
		{ctr.Delta, core.MACInECC},
		{ctr.Delta, core.MACInline},
		{ctr.Monolithic, core.MACInECC},
	} {
		ecfg := core.Default(pt.scheme, pt.placement)
		t.Run(pt.scheme.String()+"/"+ecfg.CodecName(), func(t *testing.T) {
			cfg := DefaultPersistCrash(ecfg, 20, 7)
			cfg.Epochs = 3
			cfg.WritesPerEpoch = 120
			rep, err := RunPersistCrash(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Passed() {
				t.Fatalf("%d silent escapes in the durability plane", rep.SilentEscapes)
			}
			if rep.FlatTrials != cfg.Trials || rep.ShardedTrials != cfg.Trials {
				t.Fatalf("trial counts %d/%d, want %d each", rep.FlatTrials, rep.ShardedTrials, cfg.Trials)
			}
			// Every strike kind must have run, and strikes that damage
			// sealed state must never all come back Clean.
			for _, kind := range strikeKinds() {
				if rep.Strikes[kind] == 0 {
					t.Fatalf("strike kind %q never ran", kind)
				}
			}
			damaged := rep.Outcomes[Recovered.String()] + rep.Outcomes[Halted.String()] + rep.Outcomes[Corrected.String()]
			if damaged == 0 {
				t.Fatal("no strike was ever observed as damage — the strikes are not landing")
			}
			if rep.FlatWALBytes <= 0 {
				t.Fatal("flat WAL empty")
			}
			// The one-shard arrangement's base is a bare v1 image, the
			// other's a v2 image headed by its shard count.
			sized := cfg.Engine
			sized.RegionBytes = regionBytes
			for _, a := range cfg.arrangements() {
				art, err := buildArtifacts(cfg, sized, a)
				if err != nil {
					t.Fatal(err)
				}
				head := []byte("AMEMPST1")
				if a.shards > 1 {
					head = binary.LittleEndian.AppendUint64([]byte("AMEMPST2"), uint64(a.shards))
				}
				if !bytes.HasPrefix(art.base, head) {
					t.Fatalf("%d-shard base begins %q, want %q", a.shards, art.base[:min(len(art.base), 16)], head)
				}
			}
		})
	}
}

func TestPersistCrashValidate(t *testing.T) {
	ecfg := core.Default(ctr.Delta, core.MACInECC)
	cfg := DefaultPersistCrash(ecfg, 10, 1)
	cfg.Epochs = 0
	if _, err := RunPersistCrash(cfg); err == nil {
		t.Fatal("Epochs=0 accepted")
	}
	cfg = DefaultPersistCrash(ecfg, 10, 1)
	cfg.Shards = 3 // not a power of two
	if _, err := RunPersistCrash(cfg); err == nil {
		t.Fatal("Shards=3 accepted")
	}
}
