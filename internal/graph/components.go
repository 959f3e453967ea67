package graph

import "sort"

// StronglyConnectedComponents returns the SCCs of the graph using Tarjan's
// algorithm (iterative, so deep graphs cannot overflow the goroutine stack).
// Components are returned with their member lists sorted, and the component
// list itself sorted by first member, so output is deterministic.
func (g *Digraph) StronglyConnectedComponents() [][]string {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var comps [][]string
	counter := 0

	type frame struct {
		node  string
		succs []string
		next  int
	}

	for _, root := range g.Nodes() {
		if _, seen := index[root]; seen {
			continue
		}
		frames := []frame{{node: root, succs: g.Successors(root)}}
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, root)
		onStack[root] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.next < len(f.succs) {
				succ := f.succs[f.next]
				f.next++
				if _, seen := index[succ]; !seen {
					index[succ] = counter
					low[succ] = counter
					counter++
					stack = append(stack, succ)
					onStack[succ] = true
					frames = append(frames, frame{node: succ, succs: g.Successors(succ)})
				} else if onStack[succ] {
					if index[succ] < low[f.node] {
						low[f.node] = index[succ]
					}
				}
				continue
			}
			// All successors explored: pop the frame.
			n := f.node
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].node
				if low[n] < low[parent] {
					low[parent] = low[n]
				}
			}
			if low[n] == index[n] {
				var comp []string
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					comp = append(comp, top)
					if top == n {
						break
					}
				}
				sort.Strings(comp)
				comps = append(comps, comp)
			}
		}
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i][0] < comps[j][0] })
	return comps
}

// WeaklyConnectedComponents returns the components of the graph when edge
// direction is ignored, each sorted, the list sorted by first member.
func (g *Digraph) WeaklyConnectedComponents() [][]string {
	seen := map[string]bool{}
	var comps [][]string
	for _, root := range g.Nodes() {
		if seen[root] {
			continue
		}
		var comp []string
		stack := []string{root}
		seen[root] = true
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, n)
			for succ := range g.out[n] {
				if !seen[succ] {
					seen[succ] = true
					stack = append(stack, succ)
				}
			}
			for pred := range g.in[n] {
				if !seen[pred] {
					seen[pred] = true
					stack = append(stack, pred)
				}
			}
		}
		sort.Strings(comp)
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i][0] < comps[j][0] })
	return comps
}

// LargestSCCFraction returns |largest SCC| / |nodes|, or 0 for an empty graph.
func (g *Digraph) LargestSCCFraction() float64 {
	if g.NumNodes() == 0 {
		return 0
	}
	max := 0
	for _, c := range g.StronglyConnectedComponents() {
		if len(c) > max {
			max = len(c)
		}
	}
	return float64(max) / float64(g.NumNodes())
}

// LargestWCCFraction returns |largest weak component| / |nodes|, or 0 for an
// empty graph.
func (g *Digraph) LargestWCCFraction() float64 {
	if g.NumNodes() == 0 {
		return 0
	}
	max := 0
	for _, c := range g.WeaklyConnectedComponents() {
		if len(c) > max {
			max = len(c)
		}
	}
	return float64(max) / float64(g.NumNodes())
}
