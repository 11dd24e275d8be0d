package hdcirc

import (
	"io"

	"hdcirc/internal/core"
	"hdcirc/internal/model"
)

// ParseKind converts a family name ("random", "level", "circular", …) into
// a Kind. Case-insensitive; "thermometer" names LevelLegacy, which is the
// thermometer code.
func ParseKind(s string) (Kind, error) { return core.ParseKind(s) }

// Kinds lists every available basis family.
func Kinds() []Kind { return core.Kinds() }

// ReadBasis deserializes a basis set written with Basis.WriteTo. Together
// they let a deployment ship trained basis sets to inference targets:
//
//	var buf bytes.Buffer
//	basis.WriteTo(&buf)
//	loaded, err := hdcirc.ReadBasis(&buf)
func ReadBasis(r io.Reader) (*Basis, error) { return core.ReadSet(r) }

// ReadClassifier deserializes a classifier written with Classifier.WriteTo.
// The loaded model predicts identically to the saved one.
func ReadClassifier(r io.Reader, seed uint64) (*Classifier, error) {
	return model.ReadClassifier(r, seed)
}

// ReadRegressor deserializes a regressor written with Regressor.WriteTo.
func ReadRegressor(r io.Reader, seed uint64) (*Regressor, error) {
	return model.ReadRegressor(r, seed)
}
