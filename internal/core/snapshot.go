package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/hpcautotune/hiperbot/internal/space"
)

// Snapshot export: a History serialized as packed canonical vectors
// rather than per-event label maps. Journals record one JSON object
// per evaluation (human-tailable, append-friendly); a snapshot is
// read exactly once per restart and wants the opposite trade-off —
// raw little-endian float64 columns decode in microseconds where ten
// thousand label-map lines take tens of milliseconds. Configs are
// stored bit-exactly (discrete level indices and continuous values
// are both float64s already), so a history rebuilt from a snapshot is
// identical to the one that was packed: no label formatting or
// parsing sits in between.

// PackedObservations is a History's observation list in columnar
// form: Configs is the row-major N×P config matrix and Values the N
// objective values, both raw little-endian float64 bytes (the .snap
// file embeds them as-is; a JSON marshal would base64 them, which is
// exactly the whole-payload scan the binary layout exists to avoid).
// Extras carries the sparse per-row payloads (metrics maps,
// multi-objective vectors) for the rows that have them; scalar
// sessions pay nothing.
type PackedObservations struct {
	Configs []byte        `json:"configs"`
	Values  []byte        `json:"values"`
	Extras  []PackedExtra `json:"extras,omitempty"`
}

// PackedExtra is one observation's optional payload, keyed by its
// index in evaluation order.
type PackedExtra struct {
	Index      int                `json:"i"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
	Objectives []float64          `json:"objectives,omitempty"`
}

// packFloats encodes a float64 slice as little-endian bytes.
func packFloats(vals []float64) []byte {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return buf
}

// unpackFloats reverses packFloats, checking the element count by
// division, so no count can overflow the size it is checked against.
func unpackFloats(buf []byte, want int) ([]float64, error) {
	if want < 0 || len(buf)%8 != 0 || len(buf)/8 != want {
		return nil, fmt.Errorf("core: snapshot payload holds %d bytes, want %d float64s", len(buf), want)
	}
	out := make([]float64, want)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return out, nil
}

// PackObservations exports observations (a History's, in evaluation
// order) for snapshotting. The packed form round-trips through
// UnpackObservations bit-identically.
func PackObservations(obs []Observation) PackedObservations {
	n := len(obs)
	var configs []float64
	if n > 0 {
		configs = make([]float64, 0, n*len(obs[0].Config))
	}
	values := make([]float64, n)
	var extras []PackedExtra
	for i, o := range obs {
		configs = append(configs, o.Config...)
		values[i] = o.Value
		if o.Metrics != nil || o.Objectives != nil {
			extras = append(extras, PackedExtra{Index: i, Metrics: o.Metrics, Objectives: o.Objectives})
		}
	}
	return PackedObservations{Configs: packFloats(configs), Values: packFloats(values), Extras: extras}
}

// UnpackObservations rebuilds the observation list packed by
// PackObservations. n is the expected observation count (from the
// snapshot header); a negative or overflowing count, mismatched
// payload sizes and out-of-range extras are errors, so a corrupt
// snapshot fails loudly rather than resuming a truncated history.
func UnpackObservations(sp *space.Space, p PackedObservations, n int) ([]Observation, error) {
	dims := sp.NumParams()
	if n < 0 || (dims > 0 && n > math.MaxInt/dims) {
		return nil, fmt.Errorf("core: snapshot claims %d observations of %d parameters", n, dims)
	}
	configs, err := unpackFloats(p.Configs, n*dims)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot configs: %w", err)
	}
	values, err := unpackFloats(p.Values, n)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot values: %w", err)
	}
	out := make([]Observation, n)
	for i := range out {
		out[i] = Observation{
			Config: space.Config(configs[i*dims : (i+1)*dims : (i+1)*dims]),
			Value:  values[i],
		}
	}
	for _, ex := range p.Extras {
		if ex.Index < 0 || ex.Index >= n {
			return nil, fmt.Errorf("core: snapshot extra for row %d outside %d observations", ex.Index, n)
		}
		out[ex.Index].Metrics = ex.Metrics
		out[ex.Index].Objectives = ex.Objectives
	}
	return out, nil
}
