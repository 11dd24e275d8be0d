// Fixture: the published searchable collection — Set may be populated in
// NewSet only.
package index

type Set struct {
	vecs []string
	ix   *int
}

func NewSet(vs []string, prev *Set) *Set {
	s := &Set{vecs: vs}
	if prev != nil {
		s.ix = prev.ix // no finding: designated builder
	} else {
		s.ix = new(int) // no finding: designated builder
	}
	return s
}

func (s *Set) tamper() {
	s.vecs = nil                 // want `write to Set\.vecs outside builder\(s\) NewSet`
	s.vecs = append(s.vecs, "z") // want `write to Set\.vecs outside`
	*s.ix = 3                    // want `write to Set\.ix outside` — pointee of a published field is still shared state
	s.ix = nil                   // want `write to Set\.ix outside`
}
