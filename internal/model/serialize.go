package model

// Model serialization. A trained classifier is its class-vectors; a trained
// regressor is its model hypervector. Serializing the *finalized* binary
// form (not the integer accumulators) matches how HDC models deploy to
// embedded inference targets: inference needs only the binary prototypes.
//
//	classifier: magic "HCLS" | uint32 version | uint64 k | k framed vectors
//	regressor:  magic "HREG" | uint32 version | 1 framed vector

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/index"
)

const (
	classifierMagic      = "HCLS"
	classifierStateMagic = "HCST"
	regressorMagic       = "HREG"
	modelVersion         = 1
)

// WriteTo serializes the finalized classifier prototypes. Training state
// (the accumulators) is intentionally not persisted; a loaded model serves
// inference only.
func (c *Classifier) WriteTo(w io.Writer) (int64, error) {
	return WritePrototypes(w, c.Prototypes().Vectors())
}

// WritePrototypes writes class vectors, in class order, as the HCLS stream
// Classifier.WriteTo produces and ReadClassifier reads, without building a
// classifier around them.
func WritePrototypes(w io.Writer, class []*bitvec.Vector) (int64, error) {
	header := make([]byte, 4+4+8)
	copy(header, classifierMagic)
	binary.LittleEndian.PutUint32(header[4:], modelVersion)
	binary.LittleEndian.PutUint64(header[8:], uint64(len(class)))
	var n int64
	k, err := w.Write(header)
	n += int64(k)
	if err != nil {
		return n, err
	}
	for _, m := range class {
		kk, err := m.WriteTo(w)
		n += kk
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// ReadClassifier deserializes a classifier written by WriteTo. The result
// predicts exactly like the saved model; it can also keep training, but
// note the re-seeding caveat: the binary prototypes are loaded into fresh
// accumulators with UNIT weight, because the integer training counts are
// intentionally not persisted. A class trained on n samples therefore
// resumes as if it had seen one sample, so continued Add/Refine moves the
// prototype much faster than it would have moved the original model —
// fine for fine-tuning on fresh data, skewed if you expect the old
// training mass to keep anchoring the centroid. Keep the live accumulators
// (or a serve.Server warm start, which documents the same property) when
// refinement must continue exactly where it left off.
func ReadClassifier(r io.Reader, seed uint64) (*Classifier, error) {
	header := make([]byte, 4+4+8)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, fmt.Errorf("model: reading classifier header: %w", err)
	}
	if string(header[:4]) != classifierMagic {
		return nil, errors.New("model: bad magic (not a classifier stream)")
	}
	if ver := binary.LittleEndian.Uint32(header[4:]); ver != modelVersion {
		return nil, fmt.Errorf("model: unsupported classifier version %d", ver)
	}
	k64 := binary.LittleEndian.Uint64(header[8:])
	if k64 == 0 || k64 > 1<<20 {
		return nil, fmt.Errorf("model: implausible class count %d", k64)
	}
	var vecs []*bitvec.Vector
	for i := 0; i < int(k64); i++ {
		v, err := bitvec.ReadVector(r)
		if err != nil {
			return nil, fmt.Errorf("model: reading class vector %d: %w", i, err)
		}
		vecs = append(vecs, v)
	}
	d := vecs[0].Dim()
	for i, v := range vecs {
		if v.Dim() != d {
			return nil, fmt.Errorf("model: class vector %d dimension %d != %d", i, v.Dim(), d)
		}
	}
	c := NewClassifier(int(k64), d, seed)
	for i, v := range vecs {
		c.accs[i].Add(v)
	}
	c.class.Store(index.NewSet(vecs, c.ixCfg, nil))
	return c, nil
}

// WriteStateTo serializes the classifier's EXACT training state: every
// class's integer accumulator (counters plus addition count), as k framed
// HACC streams after a small header. Unlike WriteTo, a state restored from
// this stream continues training — Add, Sub, Refine — bit-identically to
// the original model, which is what durable checkpoints (internal/serve)
// need so that replaying a write-ahead-log suffix equals a full replay.
//
//	stream: magic "HCST" | uint32 version | uint64 k | k HACC accumulators
func (c *Classifier) WriteStateTo(w io.Writer) (int64, error) {
	header := make([]byte, 4+4+8)
	copy(header, classifierStateMagic)
	binary.LittleEndian.PutUint32(header[4:], modelVersion)
	binary.LittleEndian.PutUint64(header[8:], uint64(c.k))
	var n int64
	k, err := w.Write(header)
	n += int64(k)
	if err != nil {
		return n, err
	}
	for _, acc := range c.accs {
		kk, err := acc.WriteTo(w)
		n += kk
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// RestoreStateFrom replaces the classifier's accumulators with the exact
// training state written by WriteStateTo and invalidates the finalized
// prototypes. The stream must carry the same class count and dimension the
// classifier was built with. On error the classifier is unchanged.
func (c *Classifier) RestoreStateFrom(r io.Reader) error {
	header := make([]byte, 4+4+8)
	if _, err := io.ReadFull(r, header); err != nil {
		return fmt.Errorf("model: reading classifier state header: %w", err)
	}
	if string(header[:4]) != classifierStateMagic {
		return errors.New("model: bad magic (not a classifier state stream)")
	}
	if ver := binary.LittleEndian.Uint32(header[4:]); ver != modelVersion {
		return fmt.Errorf("model: unsupported classifier state version %d", ver)
	}
	if k := binary.LittleEndian.Uint64(header[8:]); k != uint64(c.k) {
		return fmt.Errorf("model: state stream carries %d classes, classifier has %d", k, c.k)
	}
	accs := make([]*bitvec.Accumulator, c.k)
	for i := range accs {
		acc, err := bitvec.ReadAccumulator(r)
		if err != nil {
			return fmt.Errorf("model: reading class %d accumulator: %w", i, err)
		}
		if acc.Dim() != c.d {
			return fmt.Errorf("model: class %d accumulator dimension %d, classifier %d", i, acc.Dim(), c.d)
		}
		accs[i] = acc
	}
	c.accs = accs
	c.class.Store(nil)
	return nil
}

// WriteTo serializes the finalized regression model hypervector.
func (r *Regressor) WriteTo(w io.Writer) (int64, error) {
	header := make([]byte, 4+4)
	copy(header, regressorMagic)
	binary.LittleEndian.PutUint32(header[4:], modelVersion)
	var n int64
	k, err := w.Write(header)
	n += int64(k)
	if err != nil {
		return n, err
	}
	kk, err := r.Model().WriteTo(w)
	return n + kk, err
}

// ReadRegressor deserializes a regressor written by WriteTo.
func ReadRegressor(rd io.Reader, seed uint64) (*Regressor, error) {
	header := make([]byte, 4+4)
	if _, err := io.ReadFull(rd, header); err != nil {
		return nil, fmt.Errorf("model: reading regressor header: %w", err)
	}
	if string(header[:4]) != regressorMagic {
		return nil, errors.New("model: bad magic (not a regressor stream)")
	}
	if ver := binary.LittleEndian.Uint32(header[4:]); ver != modelVersion {
		return nil, fmt.Errorf("model: unsupported regressor version %d", ver)
	}
	v, err := bitvec.ReadVector(rd)
	if err != nil {
		return nil, fmt.Errorf("model: reading model vector: %w", err)
	}
	reg := NewRegressor(v.Dim(), seed)
	reg.acc.Add(v)
	reg.model.Store(v)
	return reg, nil
}
