package codec

import "gridvine/internal/store"

// The journal (internal/store) lays its records out with the stored-value
// walk: a record is its Seq, then its entries, each an op byte, its key
// and its value through kinds — the bytes an overlay frame spends on the
// same mutation. store cannot import this package (codec imports
// mediation, which imports store), so the walk is registered with it
// here, the way kinds is filled.
func init() { store.RegisterCodec(journal{}) }

type journal struct{}

func (journal) AppendRecord(dst []byte, rec *store.Record) ([]byte, error) {
	c := Codec{encoding: true, out: dst}
	c.record(rec)
	return c.out, c.err
}

// DecodeRecord decodes copies (Owned), as store.Codec requires.
func (journal) DecodeRecord(payload []byte) (store.Record, error) {
	var rec store.Record
	c := Decoder(payload)
	c.Owned(func() { c.record(&rec) })
	return rec, c.Finish()
}

func (c *Codec) record(r *store.Record) {
	c.Uint(&r.Seq)
	List(c, &r.Entries, 3, c.entry)
}

func (c *Codec) entry(e *store.Entry) {
	op := int(e.Op)
	if c.Enum(&op, int(store.OpDelete)); op < int(store.OpInsert) {
		c.fail("entry op outside 1..2")
	}
	if !c.encoding {
		e.Op = store.Op(op)
	}
	c.Str(&e.Key)
	c.any(&e.Value)
}
