package orfdisk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"orfdisk/internal/core"
	"orfdisk/internal/frame"
	"orfdisk/internal/labeling"
	"orfdisk/internal/packed"
	"orfdisk/internal/smart"
)

// Model persistence. A predictor's state captures everything needed to
// keep predicting and learning after a process restart: the forest
// (including its RNG streams, so the resumed stream is bit-identical),
// the online scaler's feature ranges, the feature selection, the
// horizon, the alarm threshold and the per-disk labeling queues. The
// engine keeps it in its log as state records (engine.go), which it
// writes with appendState and reads with decodeState: a state is always
// whole in memory, so the codec appends to and slices one []byte.
// SaveState and LoadPredictorState are those two around an io.Writer and
// an io.Reader.
//
// The model alone, without the queues, is the "ODP1" prefix of a state.

const (
	predictorMagic = "ODP1"
	stateMagic     = "ODS3"
)

// retiredStates maps each state layout of earlier releases to the remedy
// its refusal names. Only the PR 42 release's clean stop rewrites the
// states of a log with nothing logged since its last pass.
var retiredStates = map[string]string{
	"ODS1": "load it with the PR 29 release, the last that reads it, and save it again",
	"ODS2": "start the PR 42 release on this data directory and stop it cleanly " +
		"(that rewrites every state as ODS3), then start this one",
}

// appendModel appends the predictor's model, the "ODP1" prefix of a
// state, to b: the magic, then as little-endian 64-bit words the
// horizon, the threshold's bits, the feature count, the features and the
// scaler's minima and maxima, then the forest.
func (p *Predictor) appendModel(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(append(b, predictorMagic...), uint64(p.horizon))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.threshold))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(p.features)))
	for _, f := range p.features {
		b = binary.LittleEndian.AppendUint64(b, uint64(f))
	}
	min, max := p.scaler.Snapshot()
	for _, v := range slices.Concat(min, max) {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return p.forest.AppendTo(b, frame.Flate)
}

// decodeModel decodes what appendModel wrote at the front of b into a
// predictor whose labeling queues are empty, and returns it with the
// rest of b.
func decodeModel(b []byte) (*Predictor, []byte, error) {
	if len(b) < len(predictorMagic) {
		return nil, nil, fmt.Errorf("orfdisk: reading model header: %w", io.ErrUnexpectedEOF)
	}
	if head := b[:len(predictorMagic)]; string(head) != predictorMagic {
		return nil, nil, fmt.Errorf("orfdisk: bad model magic %q", head)
	}
	b = b[len(predictorMagic):]
	word := func(i uint64) uint64 { return binary.LittleEndian.Uint64(b[8*i:]) }
	if len(b) < 8*3 {
		return nil, nil, fmt.Errorf("orfdisk: reading model: %w", io.ErrUnexpectedEOF)
	}
	horizon, thBits, nFeat := word(0), word(1), word(2)
	// The horizon sizes every disk's queue, so an absurd one must fail
	// here, not in an allocation: 2^16 days is far past any disk's life.
	if horizon == 0 || horizon > 1<<16 {
		return nil, nil, fmt.Errorf("orfdisk: corrupt model (horizon %d)", horizon)
	}
	if nFeat == 0 || nFeat > uint64(smart.NumFeatures()) {
		return nil, nil, fmt.Errorf("orfdisk: corrupt model (%d features)", nFeat)
	}
	if uint64(len(b)) < 8*(3+3*nFeat) {
		return nil, nil, fmt.Errorf("orfdisk: reading model: %w", io.ErrUnexpectedEOF)
	}
	features := make([]int, nFeat)
	min, max := make([]float64, nFeat), make([]float64, nFeat)
	for i := range features {
		f := word(3 + uint64(i))
		if f >= uint64(smart.NumFeatures()) {
			return nil, nil, fmt.Errorf("orfdisk: corrupt model (feature index %d)", f)
		}
		features[i] = int(f)
		min[i] = math.Float64frombits(word(3 + nFeat + uint64(i)))
		max[i] = math.Float64frombits(word(3 + 2*nFeat + uint64(i)))
	}
	forest, rest, err := core.DecodeForest(b[8*(3+3*nFeat):])
	if err != nil {
		return nil, nil, err
	}
	if forest.Dim() != int(nFeat) {
		return nil, nil, fmt.Errorf("orfdisk: corrupt model (forest dim %d, %d features)",
			forest.Dim(), nFeat)
	}

	p := &Predictor{
		features:  features,
		scaler:    smart.NewScaler(int(nFeat)),
		forest:    forest,
		threshold: math.Float64frombits(thBits),
		horizon:   int(horizon),
		scaled:    make([]float64, nFeat),
	}
	if err := p.scaler.Restore(min, max); err != nil {
		return nil, nil, err
	}
	p.bindLabeler()
	return p, rest, nil
}

// SaveState writes the predictor's complete state, the model plus the
// per-disk labeling queues (appendState), to w in one Write. A predictor
// restored from SaveState and fed the post-snapshot stream reproduces an
// uninterrupted run bit for bit — the property the serving engine's
// crash recovery relies on.
func (p *Predictor) SaveState(w io.Writer) error {
	b, err := p.appendState(nil)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// appendState appends the predictor's complete state to b: the "ODS3"
// magic, the model (appendModel), then the queue section.
//
// The queue section is a uvarint disk count, then per tracked disk, in
// serial order, the serial (uvarint length, bytes), a uvarint sample
// count, a uvarint block length and the block — per sample, oldest
// first, a varint day (the first sample's absolute, each later one's the
// delta from the sample before) and the queued features as packed.Append
// lays them out against the sample before (the first on their own) —
// and last a little-endian CRC-32 (IEEE) of the section before it. A
// disk's consecutive days mostly repeat most of its SMART values, and a
// repeat costs its half-byte code alone. A queue holds each sample
// packed on its own, which a packed.Recoder codes against the sample
// before without decoding a value; each disk's block is built in one
// reused buffer, then appended after its length.
func (p *Predictor) appendState(b []byte) ([]byte, error) {
	b = p.appendModel(append(b, stateMagic...))
	section := len(b)
	b = binary.AppendUvarint(b, uint64(p.labeler.ActiveDisks()))
	var block []byte
	var rc packed.Recoder
	err := p.labeler.Walk(func(disk string, q *labeling.Queue) error {
		block = block[:0]
		rc.Reset()
		prevDay := 0
		err := q.Each(func(day, nv int, vals []byte) error {
			if nv != len(p.features) {
				return fmt.Errorf("orfdisk: queued sample of disk %q has %d features, want %d",
					disk, nv, len(p.features))
			}
			block, _ = rc.Append(binary.AppendVarint(block, int64(day-prevDay)), vals, nv)
			prevDay = day
			return nil
		})
		if err != nil {
			return err
		}
		b = binary.AppendUvarint(b, uint64(len(disk)))
		b = append(b, disk...)
		b = binary.AppendUvarint(b, uint64(q.Len()))
		b = binary.AppendUvarint(b, uint64(len(block)))
		b = append(b, block...)
		return nil
	})
	if err != nil {
		return b, err
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[section:])), nil
}

// LoadPredictorState reconstructs a predictor saved with SaveState. It
// reads r to its end, a state being the last thing in whatever holds
// it, and decodes it with decodeState: damaged input, and the layouts of
// earlier releases, are an error, never a panic.
func LoadPredictorState(r io.Reader) (*Predictor, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("orfdisk: reading state: %w", err)
	}
	return decodeState(b)
}

// decodeState decodes the state appendState wrote, which takes up all of
// b. The predictor shares no memory with b. Damaged input is an
// "orfdisk: corrupt state" error, never a panic, and every count and
// length in it is held against the bytes that are there before anything
// is sized by it. The layouts of earlier releases are refused before
// anything is parsed, with the remedy in the error.
func decodeState(b []byte) (*Predictor, error) {
	if len(b) < len(stateMagic) {
		return nil, fmt.Errorf("orfdisk: reading state header: %w", io.ErrUnexpectedEOF)
	}
	head := b[:len(stateMagic)]
	if remedy, ok := retiredStates[string(head)]; ok {
		return nil, fmt.Errorf("orfdisk: state layout %s is retired and this release does not read it; %s", head, remedy)
	}
	if string(head) != stateMagic {
		return nil, fmt.Errorf("orfdisk: bad state magic %q", head)
	}
	p, section, err := decodeModel(b[len(stateMagic):])
	if err != nil {
		return nil, err
	}
	n := len(section) - 4
	if n < 0 {
		return nil, errors.New("orfdisk: corrupt state (no queue checksum)")
	}
	sum, stored := crc32.ChecksumIEEE(section[:n]), binary.LittleEndian.Uint32(section[n:])
	if sum != stored {
		return nil, fmt.Errorf("orfdisk: corrupt state (queue section CRC %08x, stored %08x)", sum, stored)
	}
	if err := p.decodeQueues(section[:n]); err != nil {
		return nil, fmt.Errorf("orfdisk: corrupt state (%w)", err)
	}
	return p, nil
}

// decodeQueues restores a queue section (its CRC verified and removed)
// into p's empty labeler: disks in ascending serial order with 1 to
// horizon samples of p's features each, each sample after a disk's first
// coded against the one before. Every sample is decoded into one scratch
// vector — in place over the sample before, which is what a repeated
// value is decoded from — and the queue packs its own copy.
func (p *Predictor) decodeQueues(b []byte) error {
	horizon, f := uint64(p.horizon), uint64(len(p.features))
	short := errors.New("queue section cut short")
	uint := func() (uint64, error) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, short
		}
		b = b[n:]
		return v, nil
	}
	nDisks, err := uint()
	if err != nil {
		return err
	}
	x := make([]float64, f)
	prevDisk := ""
	for d := uint64(0); d < nDisks; d++ {
		n, err := uint()
		if err != nil || n > uint64(len(b)) {
			return short
		}
		disk := string(b[:n])
		b = b[n:]
		if d > 0 && disk <= prevDisk {
			return fmt.Errorf("disk %q after %q: not in serial order", disk, prevDisk)
		}
		prevDisk = disk
		if n, err = uint(); err != nil {
			return err
		}
		if n > horizon {
			return fmt.Errorf("queue of %d > horizon %d", n, horizon)
		}
		if n == 0 {
			return fmt.Errorf("disk %q has an empty queue", disk)
		}
		size, err := uint()
		if err != nil {
			return err
		}
		// A sample is a day of 1 to MaxVarintLen64 bytes, a code per
		// feature and at most 8 bytes of each.
		if size < n*(1+(f+1)/2) || size > n*(binary.MaxVarintLen64+(f+1)/2+8*f) {
			return fmt.Errorf("%d-byte block for %d queued samples", size, n)
		}
		if size > uint64(len(b)) {
			return short
		}
		block := b[:size]
		b = b[size:]
		day := 0
		for i := uint64(0); i < n; i++ {
			delta, sz := binary.Varint(block)
			if sz <= 0 {
				return errors.New("queued sample day")
			}
			day += int(delta)
			var prev []float64
			if i > 0 {
				prev = x
			}
			if block, err = packed.DecodeInto(x, block[sz:], prev); err != nil {
				return err
			}
			if err := p.labeler.Restore(disk, x, day); err != nil {
				return err
			}
		}
		if len(block) != 0 {
			return fmt.Errorf("%d trailing bytes in a queue block", len(block))
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("%d trailing bytes after the queues", len(b))
	}
	return nil
}

// TrackedSerials returns the serials of all disks with live labeling
// queues, sorted.
func (p *Predictor) TrackedSerials() []string { return p.labeler.Disks() }
