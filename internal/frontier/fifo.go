package frontier

import "github.com/bingo-search/bingo/internal/rbtree"

// fifoScheduler is the paper's queue manager (§4.2) and a verbatim port of
// the pre-interface frontier ordering: one large incoming and one small
// outgoing red-black tree per topic, both ordered by decayed parent
// confidence with FIFO among equals. Pop refills every topic's outgoing
// queue from its incoming queue (firing the DNS prefetch hook per
// promotion), then takes the best outgoing head across topics; a full
// incoming queue evicts its worst entry when the newcomer beats it.
type fifoScheduler struct {
	incomingLimit int
	outgoingLimit int
	prefetch      func(url string)
	topics        map[string]*topicQueues
	order         []string // deterministic topic iteration order
}

type topicQueues struct {
	incoming *rbtree.Tree[key, Item]
	outgoing *rbtree.Tree[key, Item]
}

func newFIFOScheduler(incomingLimit, outgoingLimit int, prefetch func(string)) *fifoScheduler {
	return &fifoScheduler{
		incomingLimit: incomingLimit,
		outgoingLimit: outgoingLimit,
		prefetch:      prefetch,
		topics:        make(map[string]*topicQueues),
	}
}

func (s *fifoScheduler) Name() string { return SchedulerFIFOPriority }

func (s *fifoScheduler) topic(name string) *topicQueues {
	tq, ok := s.topics[name]
	if !ok {
		tq = &topicQueues{
			incoming: rbtree.New[key, Item](keyLess),
			outgoing: rbtree.New[key, Item](keyLess),
		}
		s.topics[name] = tq
		s.order = append(s.order, name)
	}
	return tq
}

func (s *fifoScheduler) Push(it Item, eff float64, seq uint64) (string, bool) {
	// The topic is registered before the capacity check, exactly like the
	// pre-interface code: a rejected push still pins the topic's place in
	// the deterministic iteration order.
	tq := s.topic(it.Topic)
	k := key{seed: it.IsSeed, prio: eff, seq: seq}
	if tq.incoming.Len() >= s.incomingLimit {
		// Evict the worst entry if the newcomer beats it; otherwise reject.
		// The newcomer's seq is always the largest, so among equal
		// priorities keyLess is false and the newcomer is rejected —
		// identical to the legacy worstKey.prio >= prio condition.
		worstKey, worstItem, ok := tq.incoming.Max()
		if !ok || !keyLess(k, worstKey) {
			return "", false
		}
		tq.incoming.Delete(worstKey)
		tq.incoming.Insert(k, it)
		return worstItem.URL, true
	}
	tq.incoming.Insert(k, it)
	return "", true
}

func (s *fifoScheduler) Reinsert(it Item, eff float64, seq uint64) {
	s.topic(it.Topic).incoming.Insert(key{seed: it.IsSeed, prio: eff, seq: seq}, it)
}

func (s *fifoScheduler) Pop() (Item, bool) {
	var bestTopic string
	var bestKey key
	found := false
	for _, name := range s.order {
		tq := s.topics[name]
		s.refill(tq)
		k, _, ok := tq.outgoing.Min()
		if !ok {
			continue
		}
		if !found || keyLess(k, bestKey) {
			bestTopic, bestKey, found = name, k, true
		}
	}
	if !found {
		return Item{}, false
	}
	tq := s.topics[bestTopic]
	_, it, _ := tq.outgoing.Min()
	tq.outgoing.Delete(bestKey)
	return it, true
}

func (s *fifoScheduler) PopTopic(topic string) (Item, bool) {
	tq, ok := s.topics[topic]
	if !ok {
		return Item{}, false
	}
	s.refill(tq)
	k, it, ok := tq.outgoing.Min()
	if !ok {
		return Item{}, false
	}
	tq.outgoing.Delete(k)
	return it, true
}

// PopWorst takes the worst key over both tiers of every topic. After a Pop
// a small topic queue sits entirely in its outgoing tier, so preferring the
// incoming tier would spill the newest pushes whatever their priority.
func (s *fifoScheduler) PopWorst() (Item, float64, uint64, bool) {
	var worstKey key
	var worstTree *rbtree.Tree[key, Item]
	for _, name := range s.order {
		tq := s.topics[name]
		for _, t := range [2]*rbtree.Tree[key, Item]{tq.incoming, tq.outgoing} {
			if k, _, ok := t.Max(); ok && (worstTree == nil || keyLess(worstKey, k)) {
				worstKey, worstTree = k, t
			}
		}
	}
	if worstTree == nil {
		return Item{}, 0, 0, false
	}
	_, it, _ := worstTree.Max()
	worstTree.Delete(worstKey)
	return it, worstKey.prio, worstKey.seq, true
}

func (s *fifoScheduler) refill(tq *topicQueues) {
	for tq.outgoing.Len() < s.outgoingLimit {
		k, it, ok := tq.incoming.Min()
		if !ok {
			return
		}
		tq.incoming.Delete(k)
		tq.outgoing.Insert(k, it)
		if s.prefetch != nil {
			s.prefetch(it.URL)
		}
	}
}

func (s *fifoScheduler) Len() int {
	n := 0
	for _, name := range s.order {
		tq := s.topics[name]
		n += tq.incoming.Len() + tq.outgoing.Len()
	}
	return n
}

func (s *fifoScheduler) TopicLen(topic string) (int, int) {
	tq, ok := s.topics[topic]
	if !ok {
		return 0, 0
	}
	return tq.incoming.Len(), tq.outgoing.Len()
}

func (s *fifoScheduler) Dump(fn func(Item) bool) {
	for _, name := range s.order {
		tq := s.topics[name]
		cont := true
		tq.outgoing.Ascend(func(_ key, it Item) bool {
			cont = fn(it)
			return cont
		})
		if !cont {
			return
		}
		tq.incoming.Ascend(func(_ key, it Item) bool {
			cont = fn(it)
			return cont
		})
		if !cont {
			return
		}
	}
}

func (s *fifoScheduler) Reset() {
	s.topics = make(map[string]*topicQueues)
	s.order = nil
}
