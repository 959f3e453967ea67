// Package compose maintains composite-mapping closures over the schema
// graph: the transitive mapping chains reachable from a queried predicate,
// precomposed into single composite mappings ("Composition and Inversion of
// Schema Mappings") and weighted with the mapping confidences the Bayesian
// cycle analysis refreshes, so reformulation becomes one cached lookup
// instead of a per-query breadth-first walk of the mapping network.
//
// The reformulation rule of the paper (§3–§4) lives here once, as Expand:
// rewrite the predicate through each outgoing mapping, multiply the
// confidences, drop chains below the confidence gate, and let the caller
// decide whether the rewritten predicate is new. Every traversal of the
// mapping graph is a visitor over that rule: the mediation layer's wave loop
// claims predicates in a wave-global visited set, and Builder is the wave
// loop's visitor when a closure is wanted — it additionally
// composes each chain and gates on accumulated loss before claiming. A
// closure's targets are therefore the traversal's reformulations by
// construction: same claims, same wave order, same gate. Each target carries
// its composed attribute correspondences with conflict and loss tracking,
// and branches whose accumulated attribute loss exceeds Options.MaxLoss are
// pruned before any fan-out ("Managing Semantic Loss during Query
// Reformulation").
//
// The package depends only on the schema model: callers supply the mapping
// retrieval as a MappingSource closure, so the engine is testable without an
// overlay and the mediation layer can charge retrieval messages honestly.
package compose

import (
	"context"
	"fmt"

	"gridvine/internal/schema"
)

// Options tunes a closure build and keys its cache entry.
type Options struct {
	// MaxDepth bounds the mapping-path length. Default 5 (the mediation
	// layer's SearchOptions default).
	MaxDepth int
	// MinConfidence prunes chains whose composed confidence falls below it.
	// Default 0.05.
	MinConfidence float64
	// MaxLoss prunes chains whose attribute loss (see Target.Loss) exceeds
	// it, before the chain fans out further. 0 selects 1 — no pruning, the
	// full-recall mode whose targets match an uncomposed traversal exactly.
	MaxLoss float64
}

func (o Options) withDefaults() Options {
	if o.MaxDepth == 0 {
		o.MaxDepth = 5
	}
	if o.MinConfidence == 0 {
		o.MinConfidence = 0.05
	}
	if o.MaxLoss == 0 {
		o.MaxLoss = 1
	}
	return o
}

// MappingSource retrieves the active outgoing mappings of a schema (the
// mediation layer's MappingsFrom: mappings stored at the schema's key whose
// source is the schema, plus reverses of bidirectional equivalences), along
// with the overlay message cost of the retrieval. A MappingSource error
// aborts the build — a truncated closure must never be cached.
type MappingSource func(ctx context.Context, schemaName string) ([]schema.Mapping, int, error)

// Step is one predicate reached by a traversal of the mapping graph: the
// root predicate of a query (empty Path, Confidence 1) or a reformulation of
// it through the chain of mappings in Path.
type Step struct {
	// Predicate is the Schema#Attr URI; SchemaName and Attr split it.
	Predicate  string
	SchemaName string
	Attr       string
	// Path lists the IDs of the mappings traversed from the root, in order.
	Path []string
	// Confidence is the product of the traversed mappings' confidences.
	Confidence float64
}

// Expand applies the reformulation rule to one step and appends the steps
// it reaches to next. For each of the step's outgoing mappings, in order: the
// attribute is translated (a mapping without a correspondence for it is
// skipped), the chain's confidence is multiplied by the mapping's and gated
// on minConfidence, and admit decides whether the rewritten predicate is
// taken — it is where a traversal keeps its visited set, counts its
// reformulations and applies any gate of its own; it sees the predicate and
// the mapping that produced it, before the path is extended.
func Expand(next []Step, from Step, mappings []schema.Mapping, minConfidence float64, admit func(predicate string, via schema.Mapping) bool) []Step {
	for _, m := range mappings {
		attr, ok := m.TranslateAttr(from.Attr)
		if !ok {
			continue
		}
		conf := from.Confidence * m.Confidence
		if conf < minConfidence {
			continue
		}
		pred := m.Target + "#" + attr
		if !admit(pred, m) {
			continue
		}
		next = append(next, Step{
			Predicate:  pred,
			SchemaName: m.Target,
			Attr:       attr,
			Path:       append(append([]string{}, from.Path...), m.ID),
			Confidence: conf,
		})
	}
	return next
}

// Target is one precomposed reformulation destination: a Step of the
// traversal — its Path and Confidence are exactly the MappingPath and
// Confidence a query's rows report for the predicate — with the chain that
// reaches it collapsed into a single composite mapping.
type Target struct {
	Step
	// Composed is the chain collapsed into one mapping (source schema →
	// target schema): only attribute correspondences that survive every hop
	// remain, with per-correspondence confidences multiplied.
	Composed schema.Mapping
	// Loss is the fraction of the chain's first hop's source attributes that
	// no longer survive the full composition — 0 for a depth-1 target, and
	// growing as hops drop correspondences.
	Loss float64
	// Conflicts counts correspondence collisions in the composed mapping:
	// source attributes translated to several targets, or several sources
	// collapsing onto one target attribute.
	Conflicts int
	// Depth is the chain length (len(Path)).
	Depth int
}

// Entry is one cached closure: every target reachable from Source under the
// entry's options, plus the bookkeeping invalidation and accounting need.
// Entries are immutable once built; concurrent readers share them.
type Entry struct {
	// Source is the predicate URI the closure was built for.
	Source string
	// Options are the (defaulted) options the closure was built under.
	Options Options
	// Targets lists the reachable predicates in wave order — the order the
	// traversal claims them, so a query served from the entry emits its rows
	// in the order a fresh traversal would.
	Targets []Target
	// Touched lists the schema names whose key spaces the build consulted,
	// sorted. A mapping publish or replace whose source or target schema is
	// in this set may change the closure; anything else cannot (a mapping is
	// only retrievable from its source key, or its target key when
	// bidirectional), so invalidation is exact on this set.
	Touched []string
	// Version is the cache version the build started from; Cache.PutIfCurrent
	// refuses the entry if the schema graph moved during the build.
	Version uint64
	// BuildMessages is the overlay message cost of the mapping retrievals
	// the build issued.
	BuildMessages int
	// Reformulations counts the visited-set claims of the traversal —
	// exactly the Reformulations counter a fresh traversal reports.
	Reformulations int
}

// chain is the running composition of the mappings that reach a claimed
// predicate: the chain collapsed into one mapping, its first hop (the loss
// baseline), and the loss of the collapse.
type chain struct {
	composed, first schema.Mapping
	loss            float64
}

// Builder is the closure-building visitor over Expand: whoever drives the
// traversal — Build serially, the mediation layer's wave loop through its
// worker pool — hands it each looked-up step's mappings in wave order, and
// it claims the predicates they reach after the loss gate, collapsing each
// chain into a composite mapping. With MaxLoss unset the claims are exactly
// the reformulations of a traversal that composes nothing.
type Builder struct {
	e       *Entry
	touched map[string]bool
	// chains doubles as the visited set: the root and every claimed predicate
	// have an entry (the root's is the zero chain).
	chains map[string]chain
}

// NewBuilder starts the closure of root, the Step of a Schema#Attr predicate
// with an empty path and confidence 1.
func NewBuilder(root Step, opts Options) *Builder {
	return &Builder{
		e:       &Entry{Source: root.Predicate, Options: opts.withDefaults()},
		touched: map[string]bool{},
		chains:  map[string]chain{root.Predicate: {}},
	}
}

// Expand applies the rule to one step whose schema key was consulted and
// returned mappings, appending the steps it claims to next and recording
// them as targets. Steps at MaxDepth are the driver's to skip: their keys
// are not consulted, so they must not count as touched.
func (b *Builder) Expand(next []Step, from Step, mappings []schema.Mapping) []Step {
	b.touched[from.SchemaName] = true
	claimed, parent := len(next), b.chains[from.Predicate]
	next = Expand(next, from, mappings, b.e.Options.MinConfidence, func(pred string, m schema.Mapping) bool {
		if _, seen := b.chains[pred]; seen {
			return false
		}
		c := chain{composed: m, first: m}
		if len(from.Path) > 0 {
			composed, err := parent.composed.Compose(m)
			if err != nil {
				return false // impossible by construction: the chain targets m.Source
			}
			c = chain{composed: composed, first: parent.first}
		}
		if c.loss = lossOf(c.first, c.composed); c.loss > b.e.Options.MaxLoss {
			return false // pruned before claiming or fanning out
		}
		b.chains[pred] = c
		return true
	})
	for _, st := range next[claimed:] {
		c := b.chains[st.Predicate]
		b.e.Targets = append(b.e.Targets, Target{
			Step:      st,
			Composed:  c.composed,
			Loss:      c.loss,
			Conflicts: conflictsOf(c.composed),
			Depth:     len(st.Path),
		})
	}
	return next
}

// Entry returns the closure of a traversal that ran to completion. The
// driver stamps Version and BuildMessages; a traversal that lost a lookup or
// stopped early has no closure to install.
func (b *Builder) Entry() *Entry {
	b.e.Reformulations = len(b.e.Targets)
	b.e.Touched = sortedKeys(b.touched)
	return b.e
}

// Build computes the closure of a predicate: the wave-ordered traversal of
// the mapping graph that reformulation performs, without the pattern
// lookups, driven serially through a Builder. Any retrieval error aborts the
// build.
func Build(ctx context.Context, src MappingSource, predicate string, opts Options) (*Entry, error) {
	schemaName, attr, ok := schema.SplitPredicateURI(predicate)
	if !ok {
		return nil, fmt.Errorf("compose: predicate %q is not Schema#Attr", predicate)
	}
	root := Step{Predicate: predicate, SchemaName: schemaName, Attr: attr, Confidence: 1}
	b := NewBuilder(root, opts)
	for wave := []Step{root}; len(wave) > 0; {
		var next []Step
		for _, it := range wave {
			if len(it.Path) >= b.e.Options.MaxDepth {
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			mappings, msgs, err := src(ctx, it.SchemaName)
			b.e.BuildMessages += msgs
			if err != nil {
				return nil, fmt.Errorf("compose: retrieving mappings of %s: %w", it.SchemaName, err)
			}
			next = b.Expand(next, it, mappings)
		}
		wave = next
	}
	return b.Entry(), nil
}

// lossOf measures how much of the chain's initial translation capability the
// full composition retains: 1 − (distinct source attributes of the composed
// mapping) / (distinct source attributes of the chain's first hop).
func lossOf(first, composed schema.Mapping) float64 {
	base := distinctSourceAttrs(first)
	if base == 0 {
		return 0
	}
	return 1 - float64(distinctSourceAttrs(composed))/float64(base)
}

func distinctSourceAttrs(m schema.Mapping) int {
	seen := map[string]bool{}
	for _, c := range m.Correspondences {
		seen[c.SourceAttr] = true
	}
	return len(seen)
}

// conflictsOf counts correspondence collisions: every correspondence beyond
// the first sharing a source attribute (ambiguous translation) or a target
// attribute (several sources collapsing onto one target).
func conflictsOf(m schema.Mapping) int {
	bySrc := map[string]int{}
	byTgt := map[string]int{}
	for _, c := range m.Correspondences {
		bySrc[c.SourceAttr]++
		byTgt[c.TargetAttr]++
	}
	n := 0
	for _, k := range bySrc {
		if k > 1 {
			n += k - 1
		}
	}
	for _, k := range byTgt {
		if k > 1 {
			n += k - 1
		}
	}
	return n
}
