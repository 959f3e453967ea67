// Package schema implements GridVine's semantic metadata: user-defined
// schemas (sets of attributes used as triple predicates, paper §2.2),
// globally unique identifiers built from peer paths, and pairwise GAV
// schema mappings — equivalence and inclusion (subsumption) — that drive
// query reformulation and the self-organization algorithms (§3).
package schema

import (
	"crypto/sha1"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Schema is a set of attributes used as predicates in triples. Name must be
// globally unique (see GUID); Domain names the application domain whose
// connectivity registry the schema reports to (e.g. "protein-sequences").
type Schema struct {
	Name       string
	Domain     string
	Attributes []string
}

// NewSchema builds a schema with a defensive copy of the attribute list,
// sorted for determinism.
func NewSchema(name, domain string, attributes ...string) Schema {
	attrs := make([]string, len(attributes))
	copy(attrs, attributes)
	sort.Strings(attrs)
	return Schema{Name: name, Domain: domain, Attributes: attrs}
}

// Replaces implements pgrid.Replacer: a republished schema supersedes the
// stored definition of the same name, so its key holds one version.
func (s Schema) Replaces(old any) bool {
	o, ok := old.(Schema)
	return ok && o.Name == s.Name
}

// PredicateURI returns the full predicate URI for an attribute of this
// schema, in the paper's "Schema#Attribute" form (e.g. "EMBL#Organism").
func (s Schema) PredicateURI(attr string) string {
	return s.Name + "#" + attr
}

// SplitPredicateURI decomposes a "Schema#Attribute" URI. ok=false if the
// URI does not contain '#'.
func SplitPredicateURI(uri string) (schemaName, attr string, ok bool) {
	i := strings.LastIndex(uri, "#")
	if i < 0 {
		return "", "", false
	}
	return uri[:i], uri[i+1:], true
}

// GUID builds a globally unique identifier by concatenating the logical
// address π(p) of the posting peer with a hash of the local identifier
// (paper §2.2).
func GUID(peerPath, localID string) string {
	sum := sha1.Sum([]byte(localID))
	return peerPath + ":" + hex.EncodeToString(sum[:8])
}

// MappingType distinguishes equivalence from inclusion (subsumption) GAV
// mappings (paper §3).
type MappingType int

// Mapping types.
const (
	// Equivalence: corresponding attributes denote the same property.
	Equivalence MappingType = iota
	// Subsumption: each target attribute is subsumed by its source
	// attribute — target instances are a subset, so rewriting a source
	// query to the target is sound but possibly incomplete the other way.
	Subsumption
)

func (m MappingType) String() string {
	switch m {
	case Equivalence:
		return "equivalence"
	case Subsumption:
		return "subsumption"
	default:
		return "unknown"
	}
}

// Origin records how a mapping came to exist; manual mappings are trusted
// as correct by the Bayesian analysis while automatic ones carry inferred
// probabilities (paper §3.2).
type Origin int

// Mapping origins.
const (
	Manual Origin = iota
	Automatic
)

func (o Origin) String() string {
	if o == Manual {
		return "manual"
	}
	return "automatic"
}

// Correspondence aligns one source attribute with one target attribute,
// with the matcher's confidence in the pair.
type Correspondence struct {
	SourceAttr string
	TargetAttr string
	Confidence float64
}

// Mapping is a directed pairwise schema mapping: queries posed against
// Source attributes are reformulated into queries against Target
// attributes by view unfolding (predicate replacement, paper §3 and
// Figure 2). Equivalence mappings may be flagged Bidirectional, in which
// case the reverse reformulation is also licensed and the mapping is
// indexed under both schemas' overlay keys.
type Mapping struct {
	ID              string
	Source          string // source schema name
	Target          string // target schema name
	Type            MappingType
	Bidirectional   bool
	Correspondences []Correspondence
	Origin          Origin
	// Confidence is the current belief that the mapping is semantically
	// correct: 1.0 for manual mappings, the matcher score (later refined by
	// the Bayesian analysis) for automatic ones.
	Confidence float64
	// Deprecated mappings are ignored by reformulation and by the
	// connectivity registry (paper §3.2).
	Deprecated bool
}

// Replaces implements pgrid.Replacer: a republished mapping supersedes the
// stored version with its ID, so a confidence change or a deprecation
// leaves one version per key. A mapping's keys are fixed when it is
// created: the ID hashes Source, Target and Type, and Bidirectional is set
// before the first publish and never changed, so every version lands at
// the keys of the one it replaces.
func (m Mapping) Replaces(old any) bool {
	o, ok := old.(Mapping)
	return ok && o.ID == m.ID
}

// NewMapping builds a mapping with a deterministic identifier.
func NewMapping(source, target string, typ MappingType, origin Origin, corrs []Correspondence) Mapping {
	cs := make([]Correspondence, len(corrs))
	copy(cs, corrs)
	return newMapping(source, target, typ, origin, cs)
}

// newMapping is NewMapping over a correspondence slice it may keep and
// reorder.
func newMapping(source, target string, typ MappingType, origin Origin, cs []Correspondence) Mapping {
	bySource := func(i, j int) bool { return cs[i].SourceAttr < cs[j].SourceAttr }
	// Mappings are mostly rebuilt from correspondences already in source
	// order (Reverse of a name-preserving mapping, Compose); sort.Slice
	// leaves such input as it is, so skipping it keeps IDs unchanged.
	if !sort.SliceIsSorted(cs, bySource) {
		sort.Slice(cs, bySource)
	}
	m := Mapping{
		Source:          source,
		Target:          target,
		Type:            typ,
		Origin:          origin,
		Correspondences: cs,
		Confidence:      1.0,
	}
	if origin == Automatic {
		// Matcher confidence: mean of correspondence confidences.
		if len(cs) > 0 {
			sum := 0.0
			for _, c := range cs {
				sum += c.Confidence
			}
			m.Confidence = sum / float64(len(cs))
		}
	}
	m.ID = mappingID(m)
	return m
}

// mappingID hashes "Source>Target|Type" followed by "|SourceAttr=TargetAttr"
// per correspondence, in order.
func mappingID(m Mapping) string {
	n := len(m.Source) + len(m.Target) + 4
	for _, c := range m.Correspondences {
		n += len(c.SourceAttr) + len(c.TargetAttr) + 2
	}
	b := make([]byte, 0, n)
	b = append(append(append(b, m.Source...), '>'), m.Target...)
	b = strconv.AppendInt(append(b, '|'), int64(m.Type), 10)
	for _, c := range m.Correspondences {
		b = append(append(append(append(b, '|'), c.SourceAttr...), '='), c.TargetAttr...)
	}
	sum := sha1.Sum(b)
	id := [len("map-") + 16]byte{'m', 'a', 'p', '-'}
	hex.Encode(id[len("map-"):], sum[:8])
	return string(id[:])
}

// TranslateAttr maps a source attribute to its target attribute.
func (m Mapping) TranslateAttr(sourceAttr string) (string, bool) {
	for _, c := range m.Correspondences {
		if c.SourceAttr == sourceAttr {
			return c.TargetAttr, true
		}
	}
	return "", false
}

// ReverseTranslateAttr maps a target attribute back to its source
// attribute; only licensed for bidirectional mappings, but exposed
// unconditionally for the cycle analysis (which composes correspondences
// in both directions).
func (m Mapping) ReverseTranslateAttr(targetAttr string) (string, bool) {
	for _, c := range m.Correspondences {
		if c.TargetAttr == targetAttr {
			return c.SourceAttr, true
		}
	}
	return "", false
}

// Reverse returns the inverse mapping. It is only semantically valid for
// bidirectional equivalence mappings; calling it on others is an error.
func (m Mapping) Reverse() (Mapping, error) {
	if !m.Bidirectional || m.Type != Equivalence {
		return Mapping{}, fmt.Errorf("schema: mapping %s (%s, bidirectional=%v) is not reversible", m.ID, m.Type, m.Bidirectional)
	}
	rev := make([]Correspondence, len(m.Correspondences))
	for i, c := range m.Correspondences {
		rev[i] = Correspondence{SourceAttr: c.TargetAttr, TargetAttr: c.SourceAttr, Confidence: c.Confidence}
	}
	out := newMapping(m.Target, m.Source, m.Type, m.Origin, rev)
	out.Bidirectional = true
	out.Confidence = m.Confidence
	out.Deprecated = m.Deprecated
	return out, nil
}

// Compose returns the composition m ∘ next: a mapping from m.Source to
// next.Target that exists wherever attribute chains connect. Only
// correspondences whose intermediate attribute appears on both sides
// survive. The composed type is Equivalence only when both are; confidence
// multiplies. Used by the transitive-closure comparison of the Bayesian
// analysis.
func (m Mapping) Compose(next Mapping) (Mapping, error) {
	if m.Target != next.Source {
		return Mapping{}, fmt.Errorf("schema: cannot compose %s→%s with %s→%s", m.Source, m.Target, next.Source, next.Target)
	}
	corrs := make([]Correspondence, 0, len(m.Correspondences))
	for _, c1 := range m.Correspondences {
		if attr, ok := next.TranslateAttr(c1.TargetAttr); ok {
			corrs = append(corrs, Correspondence{
				SourceAttr: c1.SourceAttr,
				TargetAttr: attr,
				Confidence: c1.Confidence * confidenceOf(next, c1.TargetAttr),
			})
		}
	}
	typ := Subsumption
	if m.Type == Equivalence && next.Type == Equivalence {
		typ = Equivalence
	}
	origin := Automatic
	if m.Origin == Manual && next.Origin == Manual {
		origin = Manual
	}
	out := newMapping(m.Source, next.Target, typ, origin, corrs)
	out.Confidence = m.Confidence * next.Confidence
	return out, nil
}

func confidenceOf(m Mapping, sourceAttr string) float64 {
	for _, c := range m.Correspondences {
		if c.SourceAttr == sourceAttr {
			return c.Confidence
		}
	}
	return 0
}

func (m Mapping) String() string {
	dir := "→"
	if m.Bidirectional {
		dir = "↔"
	}
	flags := ""
	if m.Deprecated {
		flags = " [deprecated]"
	}
	return fmt.Sprintf("%s: %s %s %s (%s, %s, conf %.2f, %d corr)%s",
		m.ID, m.Source, dir, m.Target, m.Type, m.Origin, m.Confidence, len(m.Correspondences), flags)
}

func init() {
	gob.Register(Schema{})
	gob.Register(Mapping{})
	gob.Register(Correspondence{})
}
