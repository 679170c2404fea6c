% Game-level behaviour for hostage rescue, complete on its own.
% Buy in the opening freeze, engage whatever is visible, CTs fetch and
% deliver hostages, Ts hold a rotating set of guard posts.  Map layers
% refine this through reasoning_hook/1 and the tactic_* points.

do_reasoning(B) :- run_hooks(B), decide(B).

run_hooks(B) :- findall(_, reasoning_hook(B), _).

% Only an idle bot commits to a new action; switches away from a running
% action happen through motivation interrupts, not here.
decide(B) :- \+ idle(B), !.
decide(B) :- game_phase(buy), !, plan_buy(B).
decide(B) :- visible_enemy(B, E), !, engage(B, E).
decide(B) :- team(B, ct), !, ct_decide(B).
decide(B) :- t_decide(B).

plan_buy(B) :- bought_this_round(B), !.
plan_buy(B) :-
    assert(bought_this_round(B)),
    money(B, M),
    rifle_price(P),
    M >= P,
    !,
    action_buy(B, rifle).
plan_buy(_).

rifle_price(800).

engage(B, E) :- action_kill(B, E, and(bot_alive(E), bot_in_fov(B, E))).

% counter-terrorists: deliver a follower, else fetch the cheapest free
% hostage, else fall back to the rescue zone.
ct_decide(B) :- hostage_following(_, B), !, head_home(B).
ct_decide(B) :- pick_hostage(B, W), !, approach_hostage(B, W).
ct_decide(B) :- head_home(B).

pick_hostage(B, W) :-
    at_waypoint(B, My),
    findall(c(Cost, H, Node), (hostage_at(H, Node), path_cost(My, Node, Cost)), L),
    min_cost(L, c(_, _, W)).

approach_hostage(B, W) :- tactic_override(T), tactic_route(T, B, W), !.
approach_hostage(B, W) :- direct_approach(B, W).

direct_approach(B, W) :-
    action_goto(B, W,
        (no_visible_enemy(B), andThen(action_liberate_hostages(B, no_visible_enemy(B))))).

head_home(B) :-
    at_waypoint(B, My),
    nearest_tagged(My, rescue_zone, R),
    ( My =:= R
    -> action_guard(B, R, no_visible_enemy(B))
    ;  action_goto(B, R, no_visible_enemy(B))
    ).

% terrorists: first guard nearest the hostages, then cycle the ambush
% posts in ascending waypoint order.
t_decide(B) :- \+ last_post(B, _), !, first_post(B).
t_decide(B) :- last_post(B, P), next_post(P, Next), rotate_to(B, Next).

first_post(B) :-
    at_waypoint(B, My),
    nearest_tagged(My, hostage_point, W),
    assert(last_post(B, W)),
    action_guard(B, W, no_visible_enemy(B)).

rotate_to(B, Next) :-
    retract(last_post(B, _)),
    assert(last_post(B, Next)),
    action_guard(B, Next, no_visible_enemy(B)).

next_post(P, Next) :- guard_cycle(L), after_in_cycle(L, P, Next).

guard_cycle(L) :-
    findall(W, waypoint_tag(W, ambush_point), A),
    ( A = [] -> findall(W, waypoint_tag(W, hostage_point), L) ; L = A ).

after_in_cycle([W|Ws], P, Next) :-
    ( find_greater([W|Ws], P, N) -> Next = N ; Next = W ).

find_greater([W|_], P, W) :- W > P.
find_greater([_|Ws], P, N) :- find_greater(Ws, P, N).

nearest_tagged(From, Tag, W) :-
    findall(c(Cost, Node), (waypoint_tag(Node, Tag), path_cost(From, Node, Cost)), L),
    min_cost(L, c(_, W)).

% shared list helpers: first entry with the smallest leading cost wins,
% scanning left to right
min_cost([X|Xs], Best) :- min_cost_acc(Xs, X, Best).

min_cost_acc([], Best, Best).
min_cost_acc([X|Xs], Cur, Best) :-
    cost_of(X, Cx),
    cost_of(Cur, Cc),
    ( Cx < Cc -> min_cost_acc(Xs, X, Best) ; min_cost_acc(Xs, Cur, Best) ).

cost_of(c(C, _), C).
cost_of(c(C, _, _), C).
